"""Fixture package for the state-contract analyses (TMO015-016).

Each module seeds known findings at pinned lines; the tests in
``tests/test_lint_statecontract.py`` assert exact rule ids and lines
against configuration overrides that point the analyzer at this
package's own worker entrypoint and metric registry.
"""
