# Runs dgr_cli on malformed arguments and requires each to exit 2 with an
# "invalid ... '<token>'" diagnostic naming the bad token.
#   cmake -DCLI=<path to dgr_cli> -P check_cli_rejects.cmake
function(expect_reject token)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "dgr_cli ${ARGN}: exit ${rc}, expected 2")
  endif()
  string(FIND "${err}" "invalid" at_invalid)
  string(FIND "${err}" "'${token}'" at_token)
  if(at_invalid EQUAL -1 OR at_token EQUAL -1)
    message(FATAL_ERROR "dgr_cli ${ARGN}: stderr '${err}' does not name "
                        "invalid token '${token}'")
  endif()
endfunction()

expect_reject("abc" degrees 2,abc,2)
expect_reject("-1" thresholds -1,1)
expect_reject("xyz" degrees 2,2,2 --seed=xyz)
