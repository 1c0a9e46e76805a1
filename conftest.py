"""Repository-wide pytest options (loaded for every test directory)."""


def pytest_addoption(parser):
    parser.addoption(
        "--record-tables",
        action="store_true",
        default=False,
        help="rewrite benchmarks/results/<experiment>.txt from this run; "
        "without it the benchmark tables are only printed",
    )
