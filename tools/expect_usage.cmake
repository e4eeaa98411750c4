# Runs a command-line program (gpucomm_sweep, ext_collectives, ext_train) with
# arguments it must reject, and passes only when it prints its usage text and
# exits 2 (not a hang, a crash or a printed number).
#
#   cmake -DBIN=<binary> -DARGS="<space-separated arguments>" -P expect_usage.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage:")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, expected usage and exit 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
