# Fails when a source file under SRC_DIR downcasts an mp:: statement with
# dynamic_cast. Statement dispatch goes through mp::stmt_cast (mp/stmt.h),
# a kind() test; a failed dynamic_cast costs a type-name comparison on
# toolchains without merged type_info, and the analysis hot path runs
# one per statement visited.
#
#   cmake -DSRC_DIR=<dir> -P tests/check_stmt_casts.cmake
if(NOT SRC_DIR)
  message(FATAL_ERROR "pass -DSRC_DIR=<source directory>")
endif()
file(GLOB_RECURSE sources "${SRC_DIR}/*.h" "${SRC_DIR}/*.cpp")
set(pattern
    "dynamic_cast<[ \t]*(const[ \t]+)?([A-Za-z_:]*::)?[A-Za-z]*Stmt[ \t]*(const[ \t]*)?[*&]")
set(found 0)
foreach(path IN LISTS sources)
  file(STRINGS "${path}" hits REGEX "${pattern}")
  foreach(line IN LISTS hits)
    string(STRIP "${line}" line)
    message(SEND_ERROR "${path}: ${line}")
    math(EXPR found "${found} + 1")
  endforeach()
endforeach()
list(LENGTH sources scanned)
if(found GREATER 0)
  message(FATAL_ERROR
          "${found} dynamic_cast(s) to a statement type; use mp::stmt_cast")
endif()
message(STATUS "no statement dynamic_cast in ${scanned} files")
