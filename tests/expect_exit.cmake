# Exit-code gate, run from ctest (see tests/CMakeLists) as
#   cmake -DCODE=<n> -DSTDERR=<regex> [-DHELP=ON] -P expect_exit.cmake -- PROGRAM ARGS...
#
# Runs PROGRAM ARGS... and requires its exit code to be CODE and its
# stderr to match the regular expression STDERR.  WILL_FAIL would accept
# any nonzero exit; the tools document 1 as "findings" and 2 as "tool
# error", so a leg that expects a rejection must see exactly that code.
#
# With HELP set, PROGRAM is first run with --help alone: it must exit 0
# and print the usage generated from its flag declaration (a `usage:` line
# first, the -h/--help entry last).
#
# With FILES set (a list of absolute paths), each file is removed before
# the run and must exist after it, so the leg sees what this run wrote.
# With LINE set as well, each must hold a line matching that regular
# expression; with JSON set, each must parse as JSON.
foreach(var CODE STDERR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_exit.cmake: -D${var}=... is required")
  endif()
endforeach()

# The command is every argument after "--".
set(command "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

if(HELP)
  list(GET command 0 program)
  execute_process(COMMAND "${program}" --help
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out MATCHES
     "^usage: [^\n]+\n.*\n  -h, --help +print this help and exit\n$")
    message(FATAL_ERROR "${program} --help: want exit 0 and the generated "
                        "usage, got exit ${rc}:\n${out}\n${err}")
  endif()
endif()

if(FILES)
  file(REMOVE ${FILES})
endif()
execute_process(COMMAND ${command}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${CODE}")
  message(FATAL_ERROR "${command}: want exit ${CODE}, got ${rc}\n${out}\n${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "${command}: stderr does not match '${STDERR}':\n${err}")
endif()
foreach(file IN LISTS FILES)
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "${command}: did not write ${file}")
  endif()
  if(DEFINED LINE)
    file(STRINGS "${file}" hits REGEX "${LINE}")
    if(NOT hits)
      message(FATAL_ERROR "${command}: no line of ${file} matches '${LINE}'")
    endif()
  endif()
  if(JSON)
    file(READ "${file}" text)
    string(JSON type ERROR_VARIABLE bad TYPE "${text}")
    if(bad)
      message(FATAL_ERROR "${command}: ${file} is not JSON: ${bad}")
    endif()
  endif()
endforeach()
