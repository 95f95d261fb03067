# format / format-check targets over the first-party tree, driven by
# the repo-root .clang-format profile. clang-format is optional
# tooling: when the host has no binary the targets are simply not
# defined (configure prints a note), mirroring how MCSIM_LINT degrades
# -- nothing in the default build pipeline depends on either target.

find_program(MCSIM_CLANG_FORMAT NAMES clang-format clang-format-15
             clang-format-14 clang-format-13)

if(NOT MCSIM_CLANG_FORMAT)
    message(STATUS "clang-format not found; format targets disabled")
    return()
endif()

file(GLOB_RECURSE MCSIM_FORMAT_SOURCES
     ${CMAKE_SOURCE_DIR}/src/*.cc ${CMAKE_SOURCE_DIR}/src/*.hh
     ${CMAKE_SOURCE_DIR}/tests/*.cc ${CMAKE_SOURCE_DIR}/tests/*.hh
     ${CMAKE_SOURCE_DIR}/examples/*.cc
     ${CMAKE_SOURCE_DIR}/tools/*.cc ${CMAKE_SOURCE_DIR}/tools/*.hh)

add_custom_target(format
    COMMAND ${MCSIM_CLANG_FORMAT} -i --style=file ${MCSIM_FORMAT_SOURCES}
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "clang-format (in place) over first-party sources"
    VERBATIM)

add_custom_target(format-check
    COMMAND ${MCSIM_CLANG_FORMAT} --dry-run -Werror --style=file
            ${MCSIM_FORMAT_SOURCES}
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "clang-format (dry run) over first-party sources"
    VERBATIM)
