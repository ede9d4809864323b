"""Reference implementations the tests compare production code against.

Nothing under ``src/`` imports these; each module names the production
path it checks and the test that does the comparison.
"""
