# Golden-report check: run `vmmx_study --report-only` on one checked-in
# spec and compare its stdout byte for byte with the spec's .expected
# file -- absolute results, not two paths of one build agreeing.
# CMakeLists.txt registers one ctest per spec:
#
#   cmake -DSTUDY=<vmmx_study> -DSPEC=specs/X.study
#         -DEXPECTED=specs/X.expected [-DSTORE=<trace store dir>]
#         -P tests/golden_report.cmake
#
# A deliberate model change re-blesses the goldens (README "Golden
# reports") and says why in CHANGES.md.
foreach(var STUDY SPEC EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_report.cmake needs -D${var}=...")
  endif()
endforeach()

# Only the processes backend reads a trace store; the other backends
# reject one.
file(STRINGS ${SPEC} processes REGEX "^backend *= *processes")
set(store_args)
if(DEFINED STORE AND processes)
  set(store_args --set exec.store=${STORE})
endif()
execute_process(COMMAND ${STUDY} --report-only ${store_args} ${SPEC}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vmmx_study --report-only ${SPEC} exited with ${rc}")
endif()

file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${SPEC} NAME_WE)
  set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
  file(WRITE ${actual_file} "${actual}")
  message(FATAL_ERROR "${SPEC}: report differs from ${EXPECTED}\n"
                      "actual output: ${actual_file}")
endif()
