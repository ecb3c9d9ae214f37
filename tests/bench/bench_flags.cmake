# Runs a bench on bad command lines. Each must exit 2 at once (no
# abort, no default-size run) with a first stderr line that names the
# flag or argument at fault.
#
#   cmake -DBENCH=<path to the bench> "-DCOUNTS=submissions;nodes"
#         [-DSCENARIO=<name>] -P bench_flags.cmake
#
# COUNTS lists the bench's positive-count flags; each is also tried
# with 0. SCENARIO names a positional argument the bench accepts; an
# unknown name after it must still be rejected.

function(expect_usage_error culprit)
  execute_process(COMMAND "${BENCH}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  string(JOIN " " args ${ARGN})
  string(REGEX MATCH "^[^\n]*" first_line "${err}")
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${BENCH} ${args}: exit '${rc}', expected 2\n${out}${err}")
  endif()
  if(NOT first_line MATCHES "^error: .*${culprit}")
    message(FATAL_ERROR
      "${BENCH} ${args}: first stderr line does not name ${culprit}: "
      "'${first_line}'")
  endif()
endfunction()

expect_usage_error(--submissions --submissions abc)
expect_usage_error(--submision --submision 10)
expect_usage_error(--json --json)
expect_usage_error(stray --smoke stray)
if(DEFINED SCENARIO)
  expect_usage_error(no-such-gate --smoke ${SCENARIO} no-such-gate)
endif()
foreach(flag IN LISTS COUNTS)
  expect_usage_error(--${flag} --${flag} 0)
endforeach()
