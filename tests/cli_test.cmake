# Runs a command-line tool with a "|"-separated argument list and checks
# its exit code, stderr and stdout. Driven by the *Cli.* and SoakGolden.*
# ctest cases in CMakeLists.txt:
#   cmake -DBIN=<path> "-DARGS=--frames|12x" -DEXPECT=2
#         "-DSTDERR=usage: soak" -P cli_test.cmake
# "|" keeps empty arguments intact ("--fuzz-rounds" followed by "") where
# a ;-list would drop them. STDERR and STDOUT, when not empty, are regular
# expressions the stream must match: a usage error prints the tool's
# usage line, a bad input names the file or flag at fault, a campaign
# prints its metrics fingerprint. EACH, when not empty, is a "|"-separated
# list: the tool runs once per entry, with the entry in place of "{}"
# in ARGS, and every run must pass the checks.

if(NOT DEFINED BIN OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "cli_test.cmake needs -DBIN=... and -DEXPECT=...")
endif()

set(args "")
if(DEFINED ARGS AND NOT ARGS STREQUAL "")
  string(REPLACE "|" ";" args "${ARGS}")
endif()
set(each "{}")  # no EACH: one run with ARGS as given
if(DEFINED EACH AND NOT EACH STREQUAL "")
  string(REPLACE "|" ";" each "${EACH}")
endif()

foreach(entry IN LISTS each)
  string(REPLACE "{}" "${entry}" run_args "${args}")
  execute_process(
    COMMAND "${BIN}" ${run_args}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

  if(NOT code EQUAL ${EXPECT})
    message(FATAL_ERROR
      "${BIN} ${run_args}: exit ${code}, want ${EXPECT}\nstdout:\n${out}\nstderr:\n${err}")
  endif()

  if(DEFINED STDERR AND NOT STDERR STREQUAL "" AND NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR
      "${BIN} ${run_args}: stderr does not match \"${STDERR}\"\nstderr:\n${err}")
  endif()

  if(DEFINED STDOUT AND NOT STDOUT STREQUAL "" AND NOT out MATCHES "${STDOUT}")
    message(FATAL_ERROR
      "${BIN} ${run_args}: stdout does not match \"${STDOUT}\"\nstdout:\n${out}")
  endif()
endforeach()
