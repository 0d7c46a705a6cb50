"""The library against its pinned bits in ``tests/pins.json.gz``.

``tests/make_pins.py`` writes the file and says what it holds.  Each
pinned curve, crossing sweep and digest is one test here, kept bit for
bit: a change meant to keep every value must keep them all.  A change
meant to move them re-pins by running that script, which refuses values
that end up farther from the 60-digit oracle than
``max(pinned distance, 1e-13)``.
"""

import make_pins
import pytest

PINS = make_pins.read()
PINNED = [(section, key) for section in ("curves", "crossings", "digests") for key in PINS[section]]
# Curve values whose oracle distance is recomputed: the single pins this
# file replaced, BD at high SNR, and each kind of oracle.
ORACLE_SAMPLE = [
    ("abd AG-8", 0.0), ("abd AG-8", 15.0), ("bd AG-8", 0.0), ("bd AG-8", 15.0),
    ("abd NBC-4 uneven", 8.0), ("bd NBC-4 uneven", 8.0), ("bd BRGC-8", 22.5),
    ("abd BRGC-16", 25.0), ("abd pattern 102", 30.0), ("pber pattern 105", -5.0),
    ("pber pattern 5 uneven", 12.5),
]


@pytest.fixture(scope="module")
def library():
    return make_pins.library_pins()


@pytest.mark.parametrize("section, key", PINNED, ids=[f"{s}: {k}" for s, k in PINNED])
def test_the_library_keeps_the_pinned_bits(library, section, key):
    got, want = library[section][key], PINS[section][key]
    moved = [] if section == "digests" else [
        snr for snr, a, b in zip(PINS["snr_db"], got, want) if a != b]
    assert got == want, (f"{key} moved (at {moved[:5]} dB); if the change is deliberate, "
                         "re-pin with `PYTHONPATH=src python tests/make_pins.py`")


def test_the_script_writes_what_the_tests_read(library):
    # every section written is read above or below, and every section read is written
    assert tuple(PINS) == make_pins.SECTIONS
    assert {s for s, _ in PINNED} | {"snr_db", "distances"} == set(make_pins.SECTIONS)
    assert PINS["snr_db"] == make_pins.SNR_DB
    for section in ("curves", "crossings", "digests"):
        assert library[section].keys() == PINS[section].keys(), section
    assert PINS["distances"].keys() == PINS["curves"].keys()
    for key, values in PINS["curves"].items():
        assert len(values) == len(PINS["distances"][key]) == len(PINS["snr_db"]), key


@pytest.mark.parametrize("key, snr_db", ORACLE_SAMPLE)
def test_pinned_values_are_within_their_oracle_distance(key, snr_db):
    i = PINS["snr_db"].index(snr_db)
    got = make_pins.distance(PINS["curves"][key][i], make_pins.oracle(key, snr_db))
    assert got <= PINS["distances"][key][i]
