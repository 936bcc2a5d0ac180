# Fail closed on a bad command line: every tool answers --help and an
# unknown flag with its usage line on stderr and exit 2, never an abort
# (rc 134) and never a started run.
foreach(tool IN LISTS TOOLS)
  get_filename_component(name ${tool} NAME)
  foreach(arg "--help" "--bogus=1")
    execute_process(
      COMMAND ${tool} ${arg}
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
      TIMEOUT 30)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${name} ${arg}: expected exit 2, got ${rc}: ${out}${err}")
    endif()
    if(NOT err MATCHES "usage: ${name}")
      message(FATAL_ERROR "${name} ${arg}: no usage line: ${err}")
    endif()
  endforeach()
endforeach()
