# Runs `PROF --baseline BASELINE --out-dir OUT_DIR` and passes only when the
# gate exits with status 1 exactly and names the char_dff stage in a
# REGRESSION line. Any other status (0: nothing tripped, 2: usage error, a
# crash) fails, which a WILL_FAIL test could not tell apart.
#
#   cmake -DPROF=m3d_prof -DBASELINE=f.json -DOUT_DIR=d -P expect_regression.cmake
execute_process(
  COMMAND ${PROF} --baseline ${BASELINE} --out-dir ${OUT_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message("${err}")
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${rc}'")
endif()
if(NOT err MATCHES "REGRESSION CHAR\\|[^|]+\\|char_dff")
  message(FATAL_ERROR "no REGRESSION line for char_dff")
endif()
