"""Run the supercalc command line with the machine-speed log running.

    python perfbench/calibrated_cli.py SAMPLES_OUT ARGS...

is ``python -m supercalc ARGS...``: the same ``cli.main``, stdout and exit
status.  The calibration samples (see ``calibrate.py``) go to SAMPLES_OUT
as a JSON list.
"""

from __future__ import annotations

import json
import sys

from calibrate import SpeedLog


def main() -> int | str | None:
    samples_out, argv = sys.argv[1], sys.argv[2:]
    speed = SpeedLog()
    speed.start()
    try:
        from supercalc import cli

        code = cli.main(argv)
    except SystemExit as exc:
        # argparse exits for --help and for usage errors
        code = exc.code
    finally:
        sys.stdout.flush()
        speed.stop()
        with open(samples_out, "w", encoding="utf-8") as fh:
            json.dump(list(speed.samples), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
