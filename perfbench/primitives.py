"""Reference figures for the propagation primitives at 2048 x 2048.

    python3 perfbench/primitives.py

Times, on the reference scenario's tilted source mode: `scipy.fft.fft2`
in complex128 and complex64 (with the program's workers=-1), the
transfer-function build `wavefield._transfer`, the wrap-around guard
`wavefield._window_guard` and one `angular_spectrum_propagate` step of
50 um. Prints the median and the fastest of REPEAT runs of each. These
figures are a record for the README, not a gated metric.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft as sfft  # noqa: E402

from ionoptics import (  # noqa: E402
    angular_spectrum_propagate,
    beam_from_mfd,
    load_scenario,
    make_gaussian_field,
    outcoupling_angle,
)
from ionoptics import wavefield  # noqa: E402

DISTANCE = 50e-6
REPEAT = 7


def timed(fn):
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"median_s": statistics.median(times), "min_s": min(times)}


def main() -> int:
    sc = load_scenario(str(ROOT / "scenarios" / "reference.json"))
    beam = beam_from_mfd(*sc.mode_mfd_m, sc.targets.wavelength)
    tilt = math.radians(outcoupling_angle(sc.mirror).exit_angle_deg)
    field = make_gaussian_field(beam, tilt=(0.0, tilt), grid=sc.grid)
    samples64 = field.samples.astype(np.complex64)
    spectrum = sfft.fft2(field.samples, workers=-1)

    figures = {
        "fft2_complex128": timed(lambda: sfft.fft2(field.samples, workers=-1)),
        "fft2_complex64": timed(lambda: sfft.fft2(samples64, workers=-1)),
        "_transfer": timed(lambda: wavefield._transfer(field, DISTANCE)),
        "_window_guard": timed(lambda: wavefield._window_guard(field, spectrum, DISTANCE)),
        "angular_spectrum_propagate": timed(lambda: angular_spectrum_propagate(field, DISTANCE)),
    }
    record = {
        "grid": [field.nx, field.ny],
        "repeat": REPEAT,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "figures": figures,
    }
    for name, fig in figures.items():
        print(f"{name:28s} median {fig['median_s']:.4f} s   min {fig['min_s']:.4f} s")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
