# Runs a bench on bad command lines. Each must exit 2 at once (no
# abort, no default-size run) with a first stderr line that names the
# flag or argument at fault.
#
#   cmake -DBENCH=<path to the bench> "-DCOUNTS=submissions;nodes"
#         [-DSCENARIO=<name>] [-DNUMBER=<flag>] [-DTEXT=<flag>]
#         [-DSMALL=<flags>] -P bench_flags.cmake
#
# COUNTS lists the bench's positive-count flags; each is also tried
# with 0. SCENARIO names a positional argument the bench accepts; an
# unknown name after it must still be rejected. NUMBER names an integer
# flag, tried with a non-number (default submissions; empty skips it).
# TEXT names a flag that takes a value, tried with none (default json).
# SMALL lists the flags that keep a run short, given before a stray
# argument in case the bench accepts it (default --smoke).
if(NOT DEFINED NUMBER)
  set(NUMBER submissions)
endif()
if(NOT DEFINED TEXT)
  set(TEXT json)
endif()
if(NOT DEFINED SMALL)
  set(SMALL --smoke)
endif()

function(expect_usage_error culprit)
  execute_process(COMMAND "${BENCH}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  string(JOIN " " args ${ARGN})
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${BENCH} ${args}: exit '${rc}', expected 2\n${out}${err}")
  endif()
  string(REGEX MATCH "^[^\n]*" first_line "${err}")
  if(NOT first_line MATCHES "^error: .*${culprit}")
    message(FATAL_ERROR
      "${BENCH} ${args}: first stderr line does not name ${culprit}: "
      "'${first_line}'")
  endif()
endfunction()

if(NUMBER)
  expect_usage_error(--${NUMBER} --${NUMBER} abc)
endif()
expect_usage_error(--submision --submision 10)
expect_usage_error(--${TEXT} --${TEXT})
expect_usage_error(stray ${SMALL} stray)
if(DEFINED SCENARIO)
  expect_usage_error(no-such-gate --smoke ${SCENARIO} no-such-gate)
endif()
foreach(flag IN LISTS COUNTS)
  expect_usage_error(--${flag} --${flag} 0)
endforeach()
