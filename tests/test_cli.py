"""Tests for the uniq-personalize command-line interface."""

import numpy as np

from repro.cli import build_parser, main
from repro.hrtf.io import load_table


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.subject_seed == 1
        assert args.output == "personal_hrtf.npz"
        assert not args.evaluate

    def test_custom_arguments(self):
        args = build_parser().parse_args(
            ["--subject-seed", "9", "--angle-step", "15", "--evaluate"]
        )
        assert args.subject_seed == 9
        assert args.angle_step == 15.0
        assert args.evaluate


class TestMain:
    def test_end_to_end_run(self, tmp_path, capsys):
        output = tmp_path / "table.npz"
        code = main(
            [
                "--subject-seed", "1",
                "--output", str(output),
                "--angle-step", "20",
                "--probe-interval", "0.6",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "learned E_opt" in printed
        table = load_table(output)
        np.testing.assert_allclose(table.angles_deg, np.arange(0.0, 181.0, 20.0))

    def test_invalid_angle_step(self, capsys):
        assert main(["--angle-step", "0"]) == 2
        assert "angle-step" in capsys.readouterr().err
