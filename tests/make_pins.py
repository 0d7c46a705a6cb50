"""Write ``tests/pins.json.gz``, the pinned bits of the closed forms and the BD solver.

Run from the repository root with no arguments: ``PYTHONPATH=src python
tests/make_pins.py``.  Over -5..30 dB in 0.5 dB steps (``snr_db``), the file holds

* ``curves``: ``float.hex`` of ``labeling_ber`` under ABD and BD of every
  named labeling on 4-, 8- and 16-PAM, of patterns 15, 60, 102 and 105 on
  8-PAM and of NBC-4, AG-4 and pattern 5 on an uneven constellation; and
  of ``pber_general`` at the BD crossings of all 70 8-PAM patterns and of
  patterns 3, 5 and 6 on the uneven constellation;
* ``crossings``: ``float.hex`` of those BD crossings, and the region bits;
* ``digests``: sha256 of the ABD and BD ``labeling_ber`` of 40 seeded
  8-PAM labelings, which have no oracle here;
* ``distances``: each curve value's relative distance to the 60-digit
  oracle of ``tests/decimal_q.py``: ``pam_ber`` for ABD on M-PAM, else
  ``interval_pber`` at the library's own boundaries, averaged over columns.

``tests/test_pins.py`` checks the library against the file bit for bit.
After a deliberate change of a formula, run this script again.  It refuses
to re-pin, names the values, exits 1 and leaves the file as it was if some
curve value is now farther from its oracle than ``max(pinned distance,
1e-13)``: an accuracy fix re-pins freely, a regrouping that costs accuracy
is stopped.  On an unchanged library a second run leaves the file
byte-identical.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import itertools
import json
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import decimal_q
import numpy as np

from pamber import (
    BitPattern, ChannelParams, Constellation, Labeling, ThresholdSet, bd_thresholds,
    labeling_ber, labeling_coefficients, make_pam, named_labeling, pattern_coefficients,
    pattern_from_index, pber_general)
from pamber.constellation import LABELING_NAMES
from pamber.labeling_space import sample_labelings
from pamber.pattern_classes import _masks_of_weight

PATH = Path(__file__).with_name("pins.json.gz")
SECTIONS = ("snr_db", "curves", "crossings", "digests", "distances")
SNR_DB = np.arange(-5.0, 30.25, 0.5).tolist()
# A re-pin may leave a value this far from its oracle, however close it was.
FLOOR = 1e-13
UNEVEN = Constellation(points=(-1.9, -0.35, 0.1, 1.1))


def _curves() -> dict:
    """``{key: (target, constellation, entry)}``, ``entry`` a demodulator or ``"pber"``."""
    pam = {m: make_pam(m) for m in (4, 8, 16)}
    targets = []
    for m_points, name in itertools.product(pam, LABELING_NAMES):
        try:
            targets.append((f"{name}-{m_points}", named_labeling(name, m_points), pam[m_points]))
        except ValueError:  # not defined at this size
            pass
    targets += [(f"pattern {w}", pattern_from_index(8, w), pam[8]) for w in (15, 60, 102, 105)]
    targets += [("NBC-4 uneven", named_labeling("NBC", 4), UNEVEN),
                ("AG-4 uneven", named_labeling("AG", 4), UNEVEN),
                ("pattern 5 uneven", pattern_from_index(4, 5), UNEVEN)]
    out = {f"{demod} {name}": (target, c, demod)
           for name, target, c in targets for demod in ("abd", "bd")}
    for w in _masks_of_weight(8, 4).tolist():
        out[f"pber pattern {w}"] = (pattern_from_index(8, w), pam[8], "pber")
    for w in (3, 5, 6):
        out[f"pber pattern {w} uneven"] = (pattern_from_index(4, w), UNEVEN, "pber")
    return out


CURVES = _curves()


def library_pins() -> dict:
    """The ``curves``, ``crossings`` and ``digests`` sections, from the library as it stands."""
    curves = {key: [] for key in CURVES}
    crossings = {key.removeprefix("pber "): []
                 for key, (_, _, entry) in CURVES.items() if entry == "pber"}
    seeded, pam8 = sample_labelings(8, 40, seed=18), make_pam(8)
    digests = {"abd": hashlib.sha256(), "bd": hashlib.sha256()}
    for i, snr_db in enumerate(SNR_DB):
        params = ChannelParams.from_db(snr_db)
        for key, (target, c, entry) in CURVES.items():
            if entry == "pber":
                thr = bd_thresholds(target, c, params)
                betas = [b.hex() for b in thr.betas.tolist()]
                bits = "".join(map(str, thr.bits.tolist()))
                crossings[key.removeprefix("pber ")].append(" ".join(betas + [bits]))
                value = pber_general(target, c, thr, params)
            else:
                value = labeling_ber(target, c, params, entry)
            curves[key].append(value.hex())
        for demod in ("abd", "bd") if i % 5 == 0 else ("abd",):  # BD every 2.5 dB
            for lab in seeded:
                value = labeling_ber(lab, pam8, params, demod)
                digests[demod].update((value.hex() + "\n").encode())
    digests = {f"{demod} 40 seeded 8-PAM labelings": h.hexdigest() for demod, h in digests.items()}
    return {"curves": curves, "crossings": crossings, "digests": digests}


@functools.lru_cache(maxsize=None)
def _interval(points, betas, region_bits, bits, snr_db) -> Decimal:
    """``decimal_q.interval_pber``, once per column: labelings share columns with patterns."""
    return decimal_q.interval_pber(points, betas, region_bits, bits, snr_db)


def oracle(key: str, snr_db: float) -> Decimal:
    """The 60-digit value that curve ``key`` approximates at ``snr_db``."""
    target, c, entry = CURVES[key]
    if isinstance(target, BitPattern):
        columns = [target]
    else:
        columns = [BitPattern(tuple(col)) for col in target.matrix.T.tolist()]
    with localcontext() as ctx:
        ctx.prec = decimal_q.DIGITS
        if entry == "abd" and c is not UNEVEN:  # the weight form of M-PAM
            weights = (labeling_coefficients(target) if isinstance(target, Labeling)
                       else pattern_coefficients(target))
            return decimal_q.pam_ber(weights.tolist(), c.size, snr_db) / len(columns)
        params, total = ChannelParams.from_db(snr_db), Decimal(0)
        for pat in columns:
            thr = (ThresholdSet(c.midpoints(), pat.bits) if entry == "abd"
                   else bd_thresholds(pat, c, params))
            total += _interval(tuple(c.points.tolist()), tuple(thr.betas.tolist()),
                               tuple(thr.bits.tolist()), pat.bits, snr_db)
        return total / len(columns)


def distance(value: str, want: Decimal) -> float:
    """Relative distance of the ``float.hex`` string ``value`` to ``want``."""
    with localcontext() as ctx:
        ctx.prec = decimal_q.DIGITS
        return float(abs(Decimal(float.fromhex(value)) - want) / want)


def read() -> dict:
    return json.loads(gzip.decompress(PATH.read_bytes()))


def _by_point(pins: dict, section: str) -> dict:
    """``{(key, snr_db): value}`` of a section of per-SNR lists."""
    return {(key, snr_db): v for key, values in pins[section].items()
            for snr_db, v in zip(pins["snr_db"], values)}


def farther(old: dict, new: dict) -> list[str]:
    """Every curve value of ``new`` farther from its oracle than ``max(old distance, FLOOR)``."""
    before = _by_point(old, "distances")
    return [f"{key} at {snr_db:g} dB: {before[key, snr_db]:.2g} -> {d:.2g}"
            for (key, snr_db), d in _by_point(new, "distances").items()
            if (key, snr_db) in before and not d <= max(before[key, snr_db], FLOOR)]  # NaN too


def main() -> int:
    pins = {"snr_db": SNR_DB, **library_pins()}
    pins["distances"] = {
        key: [distance(v, oracle(key, snr_db)) for v, snr_db in zip(values, SNR_DB)]
        for key, values in pins["curves"].items()}
    if PATH.exists():
        old = read()
        worse = farther(old, pins)
        if worse:
            print(f"refused: {len(worse)} curve values moved farther from the oracle than "
                  f"max(pinned distance, {FLOOR:g}); {PATH.name} is unchanged", file=sys.stderr)
            print("\n".join(worse), file=sys.stderr)
            return 1
        before = _by_point(old, "curves")
        moved = sum(before.get(point, v) != v for point, v in _by_point(pins, "curves").items())
        print(f"{moved} curve values moved, none farther from the oracle than allowed")
    PATH.write_bytes(gzip.compress(json.dumps(pins, indent=0).encode(), mtime=0))
    print(f"wrote {PATH} ({PATH.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
