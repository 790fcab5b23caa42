"""Recompute the stored reference eigenvalues in ``reference.json``.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 winbench/reference.py

For each acceptance geometry it records the finite-difference oracle at its
acceptance grid (three nested levels, Richardson extrapolated) and the
spectral solver's eigenvalues. The ``modes-widths`` workload checks its two
acceptance geometries against the FD values; the ``oracle-fd`` workload checks
its coarser two-level run against the spectral values. Both references are
independent of the code path the workload times. Takes about five minutes.
"""

from __future__ import annotations

import json
import math
import pathlib
import time

from winguide.fd_oracle import GridSpec, fd_eigenvalues
from winguide.geometry import Geometry, WindowSpec
from winguide.waveguide import compute_modes

OUT = pathlib.Path(__file__).with_name("reference.json")

# name -> (half-width, d, FD grid h, FD truncation L): the acceptance grids
GEOMETRIES = {
    "a=1.0,d=2.0": (1.0, 2.0, 0.1, 20.0),
    "a=1.5,d=pi": (1.5, math.pi, 0.1, 12.0),
}


def main() -> None:
    out = {}
    for name, (a, d, h, L) in GEOMETRIES.items():
        geometry = Geometry(d=d, windows=(WindowSpec(0.0, a),))
        t0 = time.monotonic()
        fd = fd_eigenvalues(geometry, GridSpec(h=h, L=L), count=2, levels=3)
        t_fd = time.monotonic() - t0
        modes = compute_modes(geometry)
        out[name] = {
            "half_width": a,
            "d": d,
            "fd_grid": {"h": h, "L": L, "levels": 3, "count": 2},
            "fd_levels": [list(v) for _, v in fd.levels],
            "fd_extrapolated": list(fd.extrapolated),
            "fd_error_estimates": list(fd.error_estimates),
            "fd_seconds": round(t_fd, 1),
            "spectral": [m.lam for m in modes],
            "spectral_parities": [m.parity for m in modes],
        }
        print(name, out[name], flush=True)
    OUT.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
