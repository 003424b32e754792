import sys

# the recursive checkers, translators and certificate walks size their own
# headroom with `certs.stack_room`, and `cli.main` pins the limit at 30,000;
# pin it here too, so tests that call the library directly run under the
# same limit as the command line
sys.setrecursionlimit(30000)
