# Test driver for the negative-compile probes in probes/.
#
# Invoked by ctest as
#   cmake -DCXX=... -DPROBE=... -DINCLUDE_DIR=... -DEXPECT_FAIL=ON|OFF
#         -P check_compile.cmake
# and runs the probe through the project compiler with -fsyntax-only.
#
# EXPECT_FAIL=ON  -> the probe must be REJECTED (ill-formed unit algebra).
# EXPECT_FAIL=OFF -> the probe must be ACCEPTED (harness meta-test).
#
# A probe that "fails to compile" because the harness itself is broken — a
# missing probe file or include directory — must not count as a pass, so
# infrastructure errors are detected explicitly before the result check. So
# must a probe that names an undeclared type or function: it would keep
# "passing" after the thing it tests is deleted.

if(NOT EXISTS "${PROBE}")
  message(FATAL_ERROR "harness error: probe file not found: ${PROBE}")
endif()
if(NOT EXISTS "${INCLUDE_DIR}/common/units.hpp")
  message(FATAL_ERROR
      "harness error: units.hpp not under include dir: ${INCLUDE_DIR}")
endif()

# Diagnostics are matched as text below, so keep them untranslated.
set(ENV{LC_ALL} C)
execute_process(
  COMMAND "${CXX}" -std=c++20 -fsyntax-only -I "${INCLUDE_DIR}" "${PROBE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

# A missing header or probe reaching the compiler anyway (e.g. a stale path
# cached by ctest) also reads as "did not compile" — reject that explicitly.
if(err MATCHES "No such file or directory")
  message(FATAL_ERROR "harness error: compiler could not find an input:\n${err}")
endif()

if(EXPECT_FAIL)
  if(rc EQUAL 0)
    message(FATAL_ERROR
        "ill-formed probe COMPILED — the unit layer lost a compile-time "
        "guarantee: ${PROBE}")
  endif()
  # The probe must be rejected by the unit algebra. An undeclared name (a
  # probe naming a type or function the header no longer has) fails the
  # compile too, and its follow-on parse errors hide it, so any such error
  # means the probe tests nothing — report it as a harness error.
  if(err MATCHES "error: [^\n]*(was not declared in this scope|does not name a type)")
    message(FATAL_ERROR
        "harness error: probe names something the header does not declare, "
        "so its rejection says nothing about unit algebra: ${PROBE}\n${err}")
  endif()
else()
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "well-formed probe REJECTED — harness or unit layer broken:\n${err}")
  endif()
endif()
