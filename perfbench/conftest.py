import _paths  # noqa: F401  (puts src and perfbench on sys.path)
