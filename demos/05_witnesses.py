#!/usr/bin/env python3
"""Which orders carry a connected tetravalent self-reverse magic graph?

Even orders from 6 are covered by wreath graphs.  Odd orders need the
merge machinery: a base instance of order 21, 23, 25 or 27 is grown in
steps of 8, so everything odd from 21 is reachable, and nothing below is.
The same chains, started from non-wreath bases, settle the non-degenerate
and non-wreath variants.

Each base is searched for once per process, about a second for all of them.
"""

from magiclab import witness, witness_non_wreath, witness_nondegenerate

def mark(pair):
    return "yes" if pair is not None else " - "

print(" n   any  nondeg  nonwreath")
for n in range(5, 41):
    print(f"{n:>2}   {mark(witness(n))}   {mark(witness_nondegenerate(n))}"
          f"     {mark(witness_non_wreath(n))}")

g, l = witness(29)
print("\norder-29 witness: connected", g.is_connected(),
      "| 4-regular", g.is_regular(4), "| labels", l.labels[:8], "...")
