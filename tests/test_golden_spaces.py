"""Golden digests of the exactly solved spaces and decompositions.

Each case serializes a family of bases or solutions to canonical text and
compares its SHA-256 with a digest recorded before the linear-algebra
paths of modforms and anatomy were merged into one elimination.  The row
reduced echelon form depends only on the row space, so neither the order
of the conditions nor repeated or rescaled rows may move any of these
bytes.  The cyclic_orbits case, the elements built as sums over cyclic
rotations of the y-labels, was recorded before those sums shared one
rotation (series.rotations).
"""

import hashlib
import json

import pytest

from dshuffle import anatomy, modforms
from dshuffle.gens import Q4, z3
from dshuffle.rationals import rat_str
from dshuffle.resflt import highest_weight_h, sl2_e, sl2_f_via_rotations
from dshuffle.series import dihedral_bracket, ihara_bracket_component

from conftest import mono


def _texts(values):
    return "; ".join(v.text() for v in values)


def _period_spaces():
    return ["%d %s: %s" % (w, parity, _texts(
                p.poly for p in modforms.period_space(w, parity)))
            for w in range(4, 25, 2) for parity in ("even", "odd")]


def _c2_spaces():
    return ["%d: %s" % (n, _texts(modforms.c2_space(n))) for n in range(13)]


LIN_DS_CASES = ([(1, w, poles) for w in range(-3, 12)
                 for poles in (False, True)]
                + [(2, 14, False), (2, 10, True),
                   (3, 11, False), (3, 6, True)])


def _lin_ds_spaces():
    return ["%d %d %s: %s" % (d, w, poles, _texts(
                modforms.lin_ds_nullspace(d, w, poles)))
            for d, w, poles in LIN_DS_CASES]


def _sigma_solutions():
    return [json.dumps(anatomy.solve_sigma(w, 4, basis).to_json_dict(),
                       sort_keys=True)
            for w in (5, 7) for basis in ("psi", "chi")]


def _chi_q4():
    expr, q4 = anatomy.chi_q4_decomposition(5)
    return [json.dumps(expr.to_json_dict(), sort_keys=True), rat_str(q4)]


def _cyclic_orbits():
    f2 = ihara_bracket_component(mono(2), mono(4))
    values = ([z3(), Q4()]
              + [modforms.exceptional_e(modforms.period_space(w, "even")[0])
                 for w in (12, 16)]
              + [dihedral_bracket(f, g) for f, g in
                 ((mono(2), mono(4)), (mono(-2), mono(4)), (f2, mono(6)))]
              + [sl2_f_via_rotations(g)
                 for g in (sl2_e(f2), highest_weight_h(1, 2))])
    return [v.text() for v in values]


CASES = {
    "period_space": (_period_spaces, "f10d399b6a7adad349b315851825170c"
                     "abe3a75a823bccbf2d6d760e57d85c95"),
    "c2_space": (_c2_spaces, "04179896d97d72e3a2e422b7c8f5aa9d"
                 "6530ea9acc67d2f6a82e1db131572ac4"),
    "lin_ds_nullspace": (_lin_ds_spaces, "3fde049af1410a25c6af147fdacd0717"
                         "fe80f616b50a39841cb7e83e7aa5220e"),
    "solve_sigma": (_sigma_solutions, "7619613372289baf75132cdbc69aaa51"
                    "531a91013ce38fae2fa98663cec04d3e"),
    "chi_q4_decomposition": (_chi_q4, "3044c80a53f7fa4dbdfe35fed48359fb"
                             "0df58c38a60d2420c0d0f0a942fa8e19"),
    "cyclic_orbits": (_cyclic_orbits, "815b3ba4def2da0cc3589a6d6b0043982"
                      "ff3e7b9302ec61fc3ccf4a46af8aad2"),
}


def digest(name):
    lines = CASES[name][0]()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digest(name) == CASES[name][1]
