"""Write tests/oracle_sweep_refs.json and tests/oracle_sweep_mrc_refs.json,
the frozen references of test_oracle_sweep's fading-average tests.

Each row of the first is [m, mean_snr, r, reference]: the single-link
fading average of the normal approximation, integrated by mpmath at 20
digits (test_oracle_sweep._expected_error_ref, with its other steps at
40) and written with 20 significant digits.  Each row of the second is
[m, g1, g3, r, reference]: the combined (MRC) average of two links,
integrated the same way (_expected_error_mrc_ref).  Run it after a
change to a reference or to its grid:

    PYTHONPATH=src python tests/freeze_oracle_sweep.py
"""

import json

import mpmath as mp

from test_oracle_sweep import (
    BLOCKLENGTHS,
    FROZEN,
    FROZEN_MRC,
    MEAN_SNRS,
    MRC_MEANS,
    RATES,
    _expected_error_mrc_ref,
    _expected_error_ref,
)


def _write(path, rows):
    lines = ",\n".join("  " + json.dumps(row) for row in rows)
    path.write_text('{"digits": 20, "refs": [\n' + lines + "\n]}\n",
                    encoding="utf-8")


def main():
    with mp.workdps(40):
        _write(FROZEN, [[m, mean_snr, r,
                         mp.nstr(_expected_error_ref(r, m, mean_snr), 20)]
                        for m in BLOCKLENGTHS for mean_snr in MEAN_SNRS
                        for r in RATES])
        _write(FROZEN_MRC, [[m, g1, g3, r,
                             mp.nstr(_expected_error_mrc_ref(r, m, g1, g3),
                                     20)]
                            for m in BLOCKLENGTHS for g1, g3 in MRC_MEANS
                            for r in RATES])


if __name__ == "__main__":
    main()
