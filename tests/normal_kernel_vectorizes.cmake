# Fails unless both loops of the weight-init kernel vectorize in every
# copy. Compiles src/util/normal_kernel.cc with FLAGS (the Release flags
# and the file's own options) plus -fopt-info-vec-optimized, and wants
# Body's loop and CheckBody's loop each to report 16-, 32- and 64-byte
# vectors: the baseline, AVX2 and AVX-512 copies. Epilogue vectorization is
# off for this compile only, since an epilogue reports half its loop's
# width; so each width comes from its own copy's main loop. The loops are
# found as the first `for (` after each function's signature. GCC only:
# another compiler skips.
#
#   cmake -DCXX=... -DCXX_ID=... -DFLAGS="..." -DINCLUDE=src -DSOURCE=...
#         -DOBJECT=... -P normal_kernel_vectorizes.cmake
if(NOT CXX_ID STREQUAL "GNU")
  message("normal kernel vectorization check skipped: ${CXX_ID} is not GCC")
  return()
endif()

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(
  COMMAND "${CXX}" ${flags} "-I${INCLUDE}" -fopt-info-vec-optimized
          --param vect-epilogues-nomask=0 -c "${SOURCE}" -o "${OBJECT}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE report)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "compiling ${SOURCE} failed:\n${report}")
endif()

file(READ "${SOURCE}" text)
get_filename_component(name "${SOURCE}" NAME)
set(failed "")
foreach(function Body CheckBody)
  string(FIND "${text}" " ${function}(" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no function ${function} in ${SOURCE}")
  endif()
  string(SUBSTRING "${text}" ${at} -1 rest)
  string(FIND "${rest}" "for (" loop)
  math(EXPR loop "${at} + ${loop}")
  string(SUBSTRING "${text}" 0 ${loop} head)
  string(REGEX MATCHALL "\n" newlines "${head}")
  list(LENGTH newlines line)
  math(EXPR line "${line} + 1")
  foreach(bytes 16 32 64)
    set(want "${name}:${line}:[0-9]+: optimized: loop vectorized using")
    if(NOT report MATCHES "${want} ${bytes} byte vectors")
      string(APPEND failed "  ${function}'s loop (${name}:${line}): "
                           "no ${bytes}-byte vectors\n")
    endif()
  endforeach()
endforeach()
if(failed)
  message(FATAL_ERROR "the normal kernel stopped vectorizing:\n${failed}"
                      "GCC reported:\n${report}")
endif()
message("normal kernel vectorized: Body and CheckBody in 16-, 32- and "
        "64-byte vectors")
