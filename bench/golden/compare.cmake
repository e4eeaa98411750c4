# Runs one figure binary and byte-compares its stdout with a checked-in
# golden file. A figure that moves fails here by name; a deliberate model
# change regenerates the golden (see bench/golden/README.md).
#
#   cmake -DBIN=<binary> -DGOLDEN=<expected.txt> -DOUT=<actual.txt> -P compare.cmake

foreach(var BIN GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${BIN}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_EXE diff)
  if(DIFF_EXE)
    execute_process(COMMAND "${DIFF_EXE}" -u "${GOLDEN}" "${OUT}")
  endif()
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN} (actual output in ${OUT})")
endif()
