# Runs perf_service on bad command lines. Each must exit 2 at once (no
# abort, no gate run) with a first stderr line that names the flag.
#
#   cmake -DPERF_SERVICE=<path to perf_service> -P perf_service_flags.cmake

function(expect_usage_error flag)
  execute_process(COMMAND "${PERF_SERVICE}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(JOIN " " args ${ARGN})
  string(REGEX MATCH "^[^\n]*" first_line "${err}")
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR
      "perf_service ${args}: exit '${rc}', expected 2\n${out}${err}")
  endif()
  if(NOT first_line MATCHES "^error: .*--${flag}")
    message(FATAL_ERROR
      "perf_service ${args}: first stderr line does not name --${flag}: "
      "'${first_line}'")
  endif()
endfunction()

expect_usage_error(submissions --submissions abc)
expect_usage_error(classes --classes 0)
expect_usage_error(submision --submision 10)
