import artifacts
from homogenlab.cli import build_parser


def test_manifest_parses_and_repeats(tmp_path, capsys):
    parser = build_parser()
    for _, argv in artifacts.COMMANDS:
        parser.parse_args(argv.split())
    quick = [c for c in artifacts.COMMANDS if c[1].split()[0] not in artifacts.FITTING]
    first = artifacts.main(tmp_path / "first", quick)
    assert artifacts.main(tmp_path / "second", quick) == first
    assert len(capsys.readouterr().out.splitlines()) == 2 * len(first)
