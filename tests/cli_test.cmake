# Runs a command-line tool with a "|"-separated argument list and checks
# its exit code and stderr. Driven by the *Cli.* ctest cases in
# CMakeLists.txt:
#   cmake -DBIN=<path> "-DARGS=--frames|12x" -DEXPECT=2
#         "-DSTDERR=usage: soak" -P cli_test.cmake
# "|" keeps empty arguments intact ("--fuzz-rounds" followed by "") where
# a ;-list would drop them. STDERR, when not empty, is a regular
# expression stderr must match: a usage error prints the tool's usage
# line, a bad input names the file or flag at fault.

if(NOT DEFINED BIN OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "cli_test.cmake needs -DBIN=... and -DEXPECT=...")
endif()

set(args "")
if(DEFINED ARGS AND NOT ARGS STREQUAL "")
  string(REPLACE "|" ";" args "${ARGS}")
endif()

execute_process(
  COMMAND "${BIN}" ${args}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT code EQUAL ${EXPECT})
  message(FATAL_ERROR
    "${BIN} ${ARGS}: exit ${code}, want ${EXPECT}\nstdout:\n${out}\nstderr:\n${err}")
endif()

if(DEFINED STDERR AND NOT STDERR STREQUAL "" AND NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR
    "${BIN} ${ARGS}: stderr does not match \"${STDERR}\"\nstderr:\n${err}")
endif()
