"""Write tests/oracle_sweep_refs.json, the frozen references of
test_oracle_sweep.test_expected_error_single_absolute_error.

Each row is [m, mean_snr, r, reference]: the single-link fading
average of the normal approximation, integrated by mpmath at 20 digits
(test_oracle_sweep._expected_error_ref, with its other steps at 40) and
written with 20 significant digits.  Run it after a change to that
reference or to its grid:

    PYTHONPATH=src python tests/freeze_oracle_sweep.py
"""

import json

import mpmath as mp

from test_oracle_sweep import (
    BLOCKLENGTHS,
    FROZEN,
    MEAN_SNRS,
    RATES,
    _expected_error_ref,
)


def main():
    with mp.workdps(40):
        rows = [[m, mean_snr, r, mp.nstr(_expected_error_ref(r, m, mean_snr),
                                         20)]
                for m in BLOCKLENGTHS for mean_snr in MEAN_SNRS
                for r in RATES]
    lines = ",\n".join("  " + json.dumps(row) for row in rows)
    FROZEN.write_text('{"digits": 20, "refs": [\n' + lines + "\n]}\n",
                      encoding="utf-8")


if __name__ == "__main__":
    main()
