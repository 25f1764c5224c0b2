# One rejected-flag case (registered by tests/CMakeLists.txt): fails unless
# the command exits 2 and prints its usage line on stderr. The command is
# `|`-separated so it passes through -D unscathed:
#
#   cmake -DCMD="<trio-run>|--shards|abc" -P tests/cli_rejects.cmake
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit status ${rc}, want 2:\n${out}${err}")
endif()
string(FIND "${err}" "usage: " at)
if(at EQUAL -1)
  message(FATAL_ERROR "no usage line on stderr:\n${err}")
endif()
