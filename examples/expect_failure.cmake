# Runs PROG with the space-separated ARGS and passes only if it exits
# non-zero (or dies) with output matching the regex EXPECT:
#   cmake -DPROG=<binary> "-DARGS=<flags>" "-DEXPECT=<regex>" \
#         -P expect_failure.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a failure, but it exited 0:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit '${rc}' without a match for '${EXPECT}':\n${out}")
endif()
