# Runs a reproduction bench and compares its stdout with a golden file:
#
#   cmake -DBENCH=build/bench/bench_fig3_grammar \
#         -DGOLDEN=bench/golden/bench_fig3_grammar.txt \
#         -P bench/golden/check_golden.cmake
#
# The bench must exit 0. Timings differ from run to run, so they are masked
# in the output before the comparison: F3's parser-throughput line keeps its
# sentence, token and accepted counts but not its seconds and tokens/s. On a
# mismatch the masked output is written to <bench>.actual.txt in the working
# directory and diffed against the golden file; when the new output is
# intended, copy that file over the golden one.
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}; its output:\n${out}")
endif()
string(REGEX REPLACE "in [^ ]+s: [^ ]+ tokens/s" "in <seconds>s: <rate> tokens/s"
       out "${out}")
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  get_filename_component(name "${GOLDEN}" NAME_WE)
  set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt")
  file(WRITE "${actual}" "${out}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${actual}")
  message(FATAL_ERROR "${BENCH}'s output differs from ${GOLDEN}")
endif()
