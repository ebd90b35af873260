#!/usr/bin/env python3
"""Walk a label function across an isogeny and back, watching the bound-table
row swap between the generic B and C patterns."""
from fractions import Fraction

from hecke.isogeny_transfer import TransferCase, class_preserved, transfer
from hecke.label_params import LabelFunction, QBase
from hecke.param_catalog import component_match

# C2 with long orbit (3,3) and short orbit 2: eligible for the halving move
lf = LabelFunction([((0,), Fraction(2), Fraction(2)),
                    ((1,), Fraction(3), Fraction(3))], QBase(1))
before = ("C2", lf)
case = TransferCase("ii")
print("move       :", case.to_json())
print("before     :", before[0], lf.to_json())
print("row before :", component_match(before).to_json())

after = transfer(before, case)
print("after      :", after[0], after[1].to_json())
print("row after  :", component_match(after).to_json())

back = transfer(after, case, "to-cover")
print("roundtrip  :", back[0], "labels restored:", back[1] == lf)
print("class kept :", class_preserved(before, after))

# q-exponents on the moved orbit halve with the label pair
print()
print("moved orbit exponents, before:", lf.pair(lf.orbit_of(1)).to_json())
print("moved orbit exponents, after :",
      after[1].pair(after[1].orbit_of(1)).to_json())
