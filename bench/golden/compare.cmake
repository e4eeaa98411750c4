# Runs one binary and byte-compares its stdout (and optionally its stderr)
# with checked-in golden files. A figure that moves fails here by name; a deliberate model change
# regenerates the golden (see bench/golden/README.md).
#
#   cmake -DBIN=<binary> -DGOLDEN=<expected.txt> -DOUT=<actual.txt>
#         [-DARGS="<space-separated arguments>"]
#         [-DARTIFACT=<file the binary writes> -DARTIFACT_GOLDEN=<expected file>]
#         [-DERR_OUT=<actual stderr> -DERR_GOLDEN=<expected stderr>]
#         -P compare.cmake
#
# ARTIFACT names a file the binary writes (its path must also appear in
# ARGS); it is removed before the run and compared with ARTIFACT_GOLDEN
# after it. ERR_OUT captures stderr, which is compared with ERR_GOLDEN; the
# bench binaries write their per-machine trace pins there.

foreach(var BIN GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare.cmake: -D${var}=... is required")
  endif()
endforeach()
if(DEFINED ARTIFACT AND NOT DEFINED ARTIFACT_GOLDEN)
  message(FATAL_ERROR "compare.cmake: -DARTIFACT needs -DARTIFACT_GOLDEN")
endif()
if(DEFINED ERR_OUT AND NOT DEFINED ERR_GOLDEN)
  message(FATAL_ERROR "compare.cmake: -DERR_OUT needs -DERR_GOLDEN")
endif()

function(compare_or_fail expected actual what)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${expected}" "${actual}"
                  RESULT_VARIABLE differs)
  if(differs)
    find_program(DIFF_EXE diff)
    if(DIFF_EXE)
      execute_process(COMMAND "${DIFF_EXE}" -u "${expected}" "${actual}")
    endif()
    message(FATAL_ERROR "${what} differs from ${expected} (actual output in ${actual})")
  endif()
endfunction()

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED ARTIFACT)
  file(REMOVE "${ARTIFACT}")
endif()

if(DEFINED ERR_OUT)
  set(err_file ERROR_FILE "${ERR_OUT}")
endif()
execute_process(COMMAND "${BIN}" ${args} OUTPUT_FILE "${OUT}" ${err_file} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()

compare_or_fail("${GOLDEN}" "${OUT}" "stdout of ${BIN} ${ARGS}")
if(DEFINED ERR_OUT)
  compare_or_fail("${ERR_GOLDEN}" "${ERR_OUT}" "stderr of ${BIN} ${ARGS}")
endif()
if(DEFINED ARTIFACT)
  compare_or_fail("${ARTIFACT_GOLDEN}" "${ARTIFACT}" "${ARTIFACT} of ${BIN} ${ARGS}")
endif()
