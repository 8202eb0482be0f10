# Runs `elsa` with the ';'-separated ARGS and fails unless it exits 2 and
# prints both the diagnostic matching EXPECT and the usage text.
#   cmake -DELSA=<elsa binary> -DARGS="serve;--shard;8" -DEXPECT=<regex>
#         -P expect_usage.cmake
execute_process(COMMAND ${ELSA} ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "elsa ${ARGS}: exit ${code}, want 2\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}" OR NOT err MATCHES "usage:\n  elsa generate")
  message(FATAL_ERROR "elsa ${ARGS}: want '${EXPECT}' and the usage text, "
                      "got:\n${err}")
endif()
