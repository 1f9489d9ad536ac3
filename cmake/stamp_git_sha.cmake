# Script mode (cmake -DSOURCE_DIR=... -DOUTPUT=... -P stamp_git_sha.cmake):
# writes OUTPUT, a header defining VIDUR_GIT_SHA as `git describe --always
# --dirty --abbrev=7` of SOURCE_DIR, or "unknown" outside a git checkout.
# The header is rewritten only when its text changes, so what includes it
# recompiles only when the commit or the dirty flag does.
execute_process(
  COMMAND git describe --always --dirty --abbrev=7
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()
set(text "#define VIDUR_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT "${old}" STREQUAL "${text}")
  file(WRITE "${OUTPUT}" "${text}")
endif()
