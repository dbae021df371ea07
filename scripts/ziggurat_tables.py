#!/usr/bin/env python3
"""Read numpy's standard-normal ziggurat tables out of the installed numpy.

Generator.normal() takes one 64-bit raw r from its bit generator and, on the
ziggurat's fast path (Marsaglia and Tsang 2000), returns

    layer = r & 0xff, sign = (r >> 8) & 1, rabs = (r >> 9) & (2**52 - 1)
    x = rabs * wi[layer], negated when sign is set,

accepted when rabs < ki[layer]; otherwise it draws more. numpy does not
expose ki and wi, so they are read through crafted PCG64 states, using only
the public `state` setter: a state whose next output is a chosen raw. wi is
the value drawn at rabs = 1; ki is the least rabs for which the draw takes
more than one raw, found by bisection.

affinitykg.ziggurat commits the tables that affinitykg.synthetic replays.
Run with no argument, this script prints that module; regenerate it with

    PYTHONPATH=src python scripts/ziggurat_tables.py > src/affinitykg/ziggurat.py

With --check it prints one line saying whether the committed tables match the
installed numpy, and exits 0 either way.
"""

import sys

import numpy as np

from affinitykg import ziggurat

MASK128 = (1 << 128) - 1
# The 128-bit LCG multiplier of numpy's PCG64 (O'Neill 2014).
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
INCREMENT = 1  # any odd increment
RABS_BITS = 52


def state_before(raw: int, high: int = 0) -> int:
    """A PCG64 state whose next 64-bit output is raw, one for each high < 2**58.

    PCG64 steps the state, then outputs the XOR of its two 64-bit halves
    rotated right by its top six bits, here 0.
    """
    stepped = high << 64 | raw ^ high
    return (stepped - INCREMENT) * pow(MULTIPLIER, -1, 1 << 128) & MASK128


def draw_normal(bit_generator, raw: int, high: int = 0) -> tuple:
    """(Generator.normal() on a stream that starts with raw, raws it took)."""
    state = high << 64 | raw ^ high
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state_before(raw, high), "inc": INCREMENT},
                           "has_uint32": 0, "uinteger": 0}
    x = np.random.Generator(bit_generator).normal()
    taken = 1
    while state != bit_generator.state["state"]["state"]:
        state = (state * MULTIPLIER + INCREMENT) & MASK128
        taken += 1
    return x, taken


def derive() -> tuple:
    """(ki, wi) of the installed numpy, as lists of 256 ints and floats."""
    bit_generator = np.random.PCG64(0)
    ki, wi = [], []
    for layer in range(256):
        # At rabs = 1 the draw returns wi exactly, on the slow path too when
        # the wedge test passes at once (one more raw); another high half
        # changes the raws that follow.
        high = 0
        while (drawn := draw_normal(bit_generator, layer | 1 << 9, high))[1] > 2:
            high += 1
        wi.append(drawn[0])
        lo, hi = 0, 1 << RABS_BITS   # the least slow rabs lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if draw_normal(bit_generator, layer | mid << 9)[1] > 1:
                hi = mid
            else:
                lo = mid + 1
        ki.append(lo)
    return ki, wi


def module_text(ki, wi) -> str:
    rows = ["\"\"\"numpy's standard-normal ziggurat tables (ki, wi), 256 layers each.",
            "",
            "Generated by scripts/ziggurat_tables.py from the installed numpy; see",
            "there for how they are read and what they mean.",
            "\"\"\"",
            "",
            "KI = ("]
    rows += ["    " + " ".join(f"{k}," for k in ki[i:i + 4]) for i in range(0, 256, 4)]
    rows += [")", "", "WI = ("]
    rows += ["    " + " ".join(f"{w!r}," for w in wi[i:i + 3])
             for i in range(0, 256, 3)]
    rows += [")", ""]
    return "\n".join(rows)


def main(argv) -> int:
    ki, wi = derive()
    if argv[1:] != ["--check"]:
        sys.stdout.write(module_text(ki, wi))
        return 0
    if (ki, wi) == (list(ziggurat.KI), list(ziggurat.WI)):
        print(f"ziggurat tables: the committed tables match numpy {np.__version__}")
    else:
        differ = sum(pair != committed
                     for pair, committed in zip(zip(ki, wi), zip(ziggurat.KI, ziggurat.WI)))
        print(f"ziggurat tables: {differ} of 256 layers DIFFER from numpy {np.__version__}; "
              "gen-synthetic's replay no longer matches this numpy's stream")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
