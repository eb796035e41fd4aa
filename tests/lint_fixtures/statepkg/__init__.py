"""Fixture package for the state-contract analysis (TMO015).

Each module seeds known findings at pinned lines; the tests in
``tests/test_lint_statecontract.py`` assert exact rule ids and lines
against a configuration override that points the analyzer at this
package's own worker entrypoint.
"""
