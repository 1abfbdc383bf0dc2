# Given to the repository's configure step as CMAKE_PROJECT_INCLUDE by
# run.py: once the root CMakeLists.txt has defined every library, this adds
# the benchmark's targets to the same build, unless the tree already has
# them. (A deferred call may not add a subdirectory, hence the include.)
include_guard(GLOBAL)

function(bench_e2e_include)
  if(NOT TARGET bench_e2e)
    include(${CMAKE_SOURCE_DIR}/bench/e2e/CMakeLists.txt)
  endif()
endfunction()

cmake_language(DEFER CALL bench_e2e_include)
