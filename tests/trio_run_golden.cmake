# One trio-run golden case (registered by tests/CMakeLists.txt): fails
# unless the command exits 0 and its stdout contains every expected
# string. Lists are `|`-separated so they pass through -D unscathed:
#
#   cmake -DCMD="<trio-run>|--cluster|2x4" -DEXPECT="digest 0233ce4d3ebc8481" \
#         -P tests/trio_run_golden.cmake
string(REPLACE "|" ";" cmd "${CMD}")
string(REPLACE "|" ";" expect "${EXPECT}")
execute_process(COMMAND ${cmd}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit status ${rc}:\n${out}${err}")
endif()
foreach(want IN LISTS expect)
  string(FIND "${out}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing \"${want}\" in:\n${out}")
  endif()
endforeach()
