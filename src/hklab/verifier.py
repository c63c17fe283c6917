"""Theorem-level verification harness.

Builds instances over a (n, b2) grid, attaches the frame calculus, and runs
every operator identity the engine can decide, producing machine-readable
verdict reports.  All operators analysed here are model monodromy
representatives constructed from frame data inside the algebra; the tool
never claims to have computed the monodromy of an actual degeneration
(reports carry that statement in their header).

Verdicts either assert an expected outcome (asserted=True, these gate the
exit code) or record an observation the theory leaves open (asserted=False,
notably the per-(p,q) joint-kernel condition).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from hklab.linalg import (
    Mat,
    Subspace,
    kernel_basis,
    image_basis,
    lincomb_equals,
    lincomb_ratio,
    subspace_intersection,
)
from hklab.llv import (
    Bigrading,
    FrameCalculus,
    GradedPowers,
    HodgeFrame,
    OperatorError,
    _weights_hold,
    bigrading,
    build_frame,
    frame_calculus,
    frame_triples,
    verify_derivation,
)
from hklab.filtrations import (
    compare_gr_dims,
    conjugate_hodge_check,
    crosscheck_perverse_weight,
)
from hklab.module_io import LLVModuleSpec, algebra_module
from hklab.quadforms import make_standard_space, standard_tail
from hklab.verbitsky import GradedAlgebra, build_verbitsky

REPORT_HEADER = (
    "operators are model monodromy representatives built from frame data; "
    "no degeneration input is involved")

DEFAULT_GRID = tuple((n, b2) for n in (1, 2, 3) for b2 in (4, 5, 6, 7))


@dataclass(frozen=True)
class InstanceConfig:
    n: int
    b2: int
    tail: tuple = ()
    seed: int = 0

    def resolved_tail(self) -> list:
        if self.tail:
            return list(self.tail)
        return standard_tail(self.b2)

    def key(self) -> str:
        return f"n{self.n}-b{self.b2}-s{self.seed}"


@dataclass
class Verdict:
    claim: str
    expected: str
    observed: str
    passed: bool
    witness: str = ""
    asserted: bool = True

    def __post_init__(self):
        if not self.passed and not self.witness:
            self.witness = f"observed {self.observed}, expected {self.expected}"

    def to_json(self) -> dict:
        return {"claim": self.claim, "expected": self.expected,
                "observed": self.observed, "passed": self.passed,
                "witness": self.witness, "asserted": self.asserted}


@dataclass(frozen=True)
class NilpotenceProfile:
    per_degree: dict  # cohomological degree -> nilpotence index

    def __post_init__(self):
        if any(v < 0 for v in self.per_degree.values()):
            raise OperatorError("nilpotence indices cannot be negative")

    def to_json(self) -> dict:
        return {str(d): v for d, v in sorted(self.per_degree.items())}


def nilpotence_profile(powers: GradedPowers) -> NilpotenceProfile:
    """Per-degree nilpotence indices of a degree-0 operator, read off the
    powers of the operator."""
    op = powers.op
    if op.offset != 0:
        raise OperatorError("nilpotence profile needs a degree-0 operator")
    return NilpotenceProfile({d: powers.index(d)
                              for d, m in sorted(op.degrees.items()) if m})


# -- even-degree checks ---------------------------------------------------------

def _power_vanishes(claim: str, per: dict, degrees: list, e: int) -> Verdict:
    """Verdict that M^e vanishes on each listed degree, read off the
    per-degree nilpotence indices (M^e = 0 there iff the index is below e)."""
    bad = next((d for d in degrees if per[d] >= e), None)
    return Verdict(
        claim=claim, expected="zero matrices",
        observed="zero" if bad is None else "nonzero", passed=bad is None,
        witness="" if bad is None else f"M^{e} != 0 on degree {bad}")


def check_even_nagai(profile: NilpotenceProfile, n: int) -> list:
    """Verdicts for the even-degree nilpotence pattern of the model operator.

    Expected pattern: index k on degree 2k up to the middle, mirrored
    above, with the (n+1)-st power vanishing everywhere and the n-th power
    vanishing strictly below the middle.  Every verdict is read off the
    profile.
    """
    verdicts = []
    per = profile.per_degree
    for k in range(0, n + 1):
        d = 2 * k
        verdicts.append(Verdict(
            claim=f"nilp(M_{d}) = {k}",
            expected=str(k), observed=str(per.get(d)),
            passed=per.get(d) == k))
    verdicts.append(Verdict(
        claim=f"nilp(M_{2 * n}) = n",
        expected=str(n), observed=str(per.get(2 * n)),
        passed=per.get(2 * n) == n))
    for k in range(0, n):
        d = 2 * k
        verdicts.append(Verdict(
            claim=f"nilp(M_{d}) <= n-1",
            expected=f"<= {n - 1}", observed=str(per.get(d)),
            passed=per.get(d) is not None and per.get(d) <= n - 1))
    even = [d for d in sorted(per) if d % 2 == 0]
    verdicts.append(_power_vanishes("M^(n+1) = 0 on every even degree",
                                    per, even, n + 1))
    verdicts.append(_power_vanishes("M^n = 0 strictly below the middle degree",
                                    per, [d for d in even if d < 2 * n], n))
    ok, witness = True, ""
    for d, v in per.items():
        dual = 4 * n - d
        if per.get(dual) != v:
            ok, witness = False, f"nilp(M_{d}) = {v} != nilp(M_{dual})"
            break
    verdicts.append(Verdict(
        claim="profile duality nilp(M_d) = nilp(M_(4n-d))",
        expected="symmetric", observed="symmetric" if ok else "asymmetric",
        passed=ok, witness=witness))
    return verdicts


def _joint_kernel(fc: FrameCalculus, d: int, dim: int) -> Subspace:
    """Joint kernel of L_beta and L_sbar on degree d (of dimension dim)."""
    # Scaling rows leaves the kernel, so numerators stand for both blocks.
    rows = fc.L_beta.block(d).num + fc.L_sbar.block(d).num
    return (kernel_basis(Mat.from_num(len(rows), dim, rows)) if rows
            else Subspace.full(dim))


def check_condition_26(fc: FrameCalculus, big: Bigrading, n: int) -> list:
    """Joint-kernel condition per (p, q): recorded, never asserted.

    For each bidegree with p + q <= 2n - 2 the verdict states whether the
    joint kernel of multiplication by beta and by sbar meets the (p, q)
    component only in zero.  The theory leaves the status of this condition
    open, so these verdicts never gate the exit code.
    """
    verdicts = []
    for d in sorted(fc.M.degrees):
        if d % 2 or d > 2 * n - 2 or fc.M.degrees[d] == 0:
            continue
        joint = _joint_kernel(fc, d, fc.M.degrees[d])
        for p in range(0, d + 1):
            q = d - p
            piece = big.hodge_piece(p, q)
            if piece.dim == 0:
                continue
            inter = subspace_intersection(joint, piece)
            verdicts.append(Verdict(
                claim=f"joint kernel of L_beta, L_sbar trivial on (p,q)=({p},{q})",
                expected="0 (open condition, recorded)",
                observed=str(inter.dim),
                passed=inter.dim == 0,
                asserted=False))
    return verdicts


def check_level_reformulation(big: Bigrading, n: int) -> list:
    """Level bound per even degree: nonzero V^{p,q,i} with p+q = 2k must
    satisfy |p-q| <= 2k - 2|i-k|."""
    verdicts = []
    degrees = sorted({p + q for (p, q, _i) in big.components})
    for d in degrees:
        if d % 2:
            continue
        k = d // 2
        ok, witness = True, ""
        for (p, q, i), sub in sorted(big.components.items()):
            if p + q != d or sub.dim == 0:
                continue
            if abs(p - q) > 2 * k - 2 * abs(i - k):
                ok = False
                witness = f"V^({p},{q},{i}) nonzero violates the bound"
                break
        verdicts.append(Verdict(
            claim=f"graded level bound on degree {d}",
            expected="|p-q| <= 2k-2|i-k|",
            observed="holds" if ok else "violated",
            passed=ok, witness=witness))
    return verdicts


def check_m_degree2(fc: FrameCalculus) -> list:
    """Rank-2 shape of M on degree 2: proportional to the pairing form,
    image the marked isotropic plane, square zero, pairing-skew."""
    verdicts = []
    gram = fc.frame.space.gram
    b2 = gram.rows
    beta, sbar = fc.frame.beta, fc.frame.sbar
    # q(beta, e_j) and q(sbar, e_j), one product each (the Gram is symmetric)
    qb, qs = gram.times_vec(beta), gram.times_vec(sbar)
    model = Mat.from_rows([[qb[j] * sbar[t] - qs[j] * beta[t]
                            for j in range(b2)] for t in range(b2)])
    m2 = fc.M.block(2)
    scal = lincomb_ratio(b2, b2, [(1, m2, None)], model)
    verdicts.append(Verdict(
        claim="M on degree 2 is proportional to q(beta,.) sbar - q(sbar,.) beta",
        expected="proportional", observed=f"scalar {scal}",
        passed=scal is not None and scal != 0,
        witness="" if scal else "not proportional"))
    img = image_basis(m2)
    plane = Subspace.from_vectors(b2, [beta, sbar])
    verdicts.append(Verdict(
        claim="image of M on degree 2 is the isotropic plane <beta, sbar>",
        expected="plane of dimension 2", observed=f"dimension {img.dim}",
        passed=img.dim == 2 and img == plane))
    square_zero = lincomb_equals(b2, b2, [(1, m2, m2)])
    verdicts.append(Verdict(
        claim="M squared vanishes on degree 2",
        expected="0", observed="0" if square_zero else "nonzero",
        passed=square_zero))
    # q(Mv, w) + q(v, Mw) = v^T (M^T G + G M) w for all v, w
    ok = lincomb_equals(b2, b2, [(1, m2.transpose(), gram), (1, gram, m2)])
    verdicts.append(Verdict(
        claim="q(Mv, w) + q(v, Mw) = 0 on degree 2",
        expected="skew-compatible", observed="holds" if ok else "fails",
        passed=ok))
    return verdicts


def check_sl2_suite(fc: FrameCalculus) -> list:
    """The frame sl2 triples, verified exactly.

    Each triple is checked on [h,e] = 2e and [h,f] = -2f; its third
    identity [e,f] = h holds by construction, so checking it would
    recompute a bracket already certified:
    - for sigma, sigma_bar and beta, h is the bracket [e, f] that
      frame_calculus computes (H_s, H_sbar, H_beta);
    - for eta, frame_triples computes h as [e, f];
    - for m, frame_calculus reads kappa with llv.sum_ratio over the terms
      llv.bracket(E_M, F_M), which certifies [E_M, F_M] = kappa H_M
      exactly, so [E_M, F_M/kappa] = H_M.
    Each is checked by llv.bracket_equals, with no bracket formed; at the
    canonical frame every h is diagonal, so the check reads h's diagonal
    against the nonzeros of e and f.  llv.verify_sl2 keeps all three
    identities for triples from elsewhere.

    The doubled pair (2M, 2[Lam_s, L_eta]) brackets to m_bracket_scalar
    times H_beta - H_s; the scalar is recorded and the bracket-normalised
    triple is the one verified.  The unnormalised literal pair is also
    reported (recorded, not asserted) for transparency.  Both are read off
    kappa: sum_ratio certifies [E_M, F_M] = kappa H_M exactly, so
    [M, [Lam_s, L_eta]] = (kappa/4) H_M, and the literal pair differs from
    the 'm' triple only in its [e, f] = h identity, kappa H_M = H_M.  An
    identity c H_M = H_M holds exactly when c = 1 or H_M = 0.
    """
    verdicts = []
    kappa, h_m = fc.m_bracket_scalar, fc.H_M
    oks = {name: _weights_hold(t) for name, t in frame_triples(fc).items()}
    for name, ok in oks.items():
        claim = f"sl2 triple '{name}'"
        if name == "m":
            claim += " (bracket-normalised: (2M, 2[Lam_s,L_eta]/kappa, H_beta-H_s))"
        verdicts.append(Verdict(
            claim=claim, expected="sl2 identities hold",
            observed="hold" if ok else "fail", passed=ok))
    bracket_ok = kappa == 4 or h_m.is_zero()
    verdicts.append(Verdict(
        claim="[M, [Lam_s, L_eta]] = H_beta - H_s",
        expected="exact equality",
        observed="holds" if bracket_ok else "fails",
        passed=bracket_ok))
    verdicts.append(Verdict(
        claim="bracket scalar kappa with [2M, 2[Lam_s,L_eta]] = kappa (H_beta - H_s)",
        expected="4 under the linear dual normalisation",
        observed=str(fc.m_bracket_scalar),
        passed=fc.m_bracket_scalar == 4,
        asserted=False))
    literal = oks["m"] and (kappa == 1 or h_m.is_zero())
    verdicts.append(Verdict(
        claim="literal doubled pair (2M, 2[Lam_s,L_eta], H_beta-H_s) as printed",
        expected="fails by the factor kappa (recorded)",
        observed="sl2" if literal else "not an sl2 triple",
        passed=not literal,
        asserted=False))
    return verdicts


# -- odd-degree checks -----------------------------------------------------------

def check_odd(spec: LLVModuleSpec, frame: HodgeFrame,
              fc: Optional[FrameCalculus] = None,
              big: Optional[Bigrading] = None) -> list:
    """Odd-degree nilpotence bounds on a validated module.

    Upper bound min(2k-3, n-1) per odd degree 2k-1; the level-based lower
    bound via the index formula l = min_i max(|k-l-i|, |k+l-1-i|); the
    conditional improvement to k-1 when the joint-kernel condition holds
    (vacuously true when the module has no low even degrees); and, when
    degree 3 is populated, the expected exact values nilp(M_3) = 1 and
    nilp(M_(2n-1)) = n-1.  Geometric expectations are recorded, not
    asserted, since ingested modules need not come from geometry.  fc and
    big, if given, are the module's frame calculus and bigrading.
    """
    rep = spec.validation
    if not rep.all_passed:
        raise OperatorError("refusing to analyse a module that failed validation: "
                            + "; ".join(c.name for c in rep.failed()))
    n = spec.n
    verdicts = []
    odd = spec.odd_degrees()
    if not odd:
        return [Verdict(claim="odd-degree analysis",
                        expected="odd degrees present",
                        observed="module has no odd part",
                        passed=True, witness="vacuous")]
    if fc is None:
        fc = frame_calculus(spec, frame)
    if big is None:
        big = bigrading(spec, fc)
    cond26 = _module_condition_26(spec, fc)
    powers = GradedPowers(fc.M)
    for d in odd:
        k = (d + 1) // 2
        nil = powers.index(d)
        upper = min(2 * k - 3, n - 1)
        verdicts.append(Verdict(
            claim=f"nilp(M_{d}) <= min(2k-3, n-1) = {upper}",
            expected=f"<= {upper}", observed=str(nil),
            passed=nil <= upper, asserted=False))
        level = big.level(d)
        if level > 0 and level % 2 == 1:
            ell = (level + 1) // 2
            formula = min(max(abs(k - ell - i), abs(k + ell - 1 - i))
                          for i in range(-2 * n, 2 * n + 1))
            verdicts.append(Verdict(
                claim=f"index formula on degree {d}: "
                      "min_i max(|k-l-i|, |k+l-1-i|) = l",
                expected=str(ell), observed=str(formula),
                passed=formula == ell))
            verdicts.append(Verdict(
                claim=f"level lower bound l = {ell} <= nilp(M_{d})",
                expected=f">= {ell}", observed=str(nil),
                passed=nil >= ell, asserted=False))
        if cond26:
            verdicts.append(Verdict(
                claim=f"joint-kernel condition holds: nilp(M_{d}) <= k-1 = {k - 1}",
                expected=f"<= {k - 1}", observed=str(nil),
                passed=nil <= k - 1, asserted=False))
    if spec.degrees.get(3, 0) > 0:
        nil3 = powers.index(3)
        verdicts.append(Verdict(
            claim="degree 3 populated: nilp(M_3) = 1",
            expected="1", observed=str(nil3),
            passed=nil3 == 1, asserted=False))
        d_top = 2 * n - 1
        if spec.degrees.get(d_top, 0) > 0:
            nil_top = powers.index(d_top)
            verdicts.append(Verdict(
                claim=f"degree 3 populated: nilp(M_{d_top}) = n-1",
                expected=str(n - 1), observed=str(nil_top),
                passed=nil_top == n - 1, asserted=False))
    return verdicts


def _module_condition_26(spec: LLVModuleSpec, fc: FrameCalculus) -> bool:
    n = spec.n
    for d, m in sorted(spec.degrees.items()):
        if m == 0 or d > 2 * n - 2:
            continue
        if _joint_kernel(fc, d, m).dim:
            return False
    return True


def check_betti_mod4(big: Bigrading, degrees: dict) -> list:
    """Odd graded dimensions divisible by four, via the fourfold symmetry.

    The symmetry of the component dimensions is itself part of the verdict:
    without it the quadruple count does not apply and divisibility is not
    asserted.
    """
    verdicts = []
    odd = sorted(d for d, m in degrees.items() if d % 2 and m)
    if not odd:
        return [Verdict(claim="odd graded dimensions divisible by 4",
                        expected="odd degrees present",
                        observed="no odd part", passed=True,
                        witness="vacuous")]
    sym_ok, witness = True, ""
    for (p, q, i) in sorted(big.components):
        dim = big.dim(p, q, i)
        if big.dim(q, p, i) != dim or big.dim(i, p + q - i, p) != dim \
                or big.dim(p + q - i, i, p) != dim:
            sym_ok = False
            witness = f"component ({p},{q},{i}) breaks the symmetry"
            break
    verdicts.append(Verdict(
        claim="fourfold symmetry of component dimensions",
        expected="dim V^(p,q,i) = dim V^(q,p,i) = dim V^(i,p+q-i,p)",
        observed="holds" if sym_ok else "fails",
        passed=sym_ok, witness=witness))
    if not sym_ok:
        return verdicts
    for d in odd:
        k = (d + 1) // 2
        total = degrees[d]
        fundamental = sum(sub.dim for (p, q, i), sub in big.components.items()
                          if p + q == d and p < k and i < k)
        verdicts.append(Verdict(
            claim=f"odd graded dimension in degree {d} divisible by 4",
            expected=f"4 * {fundamental} = {4 * fundamental}",
            observed=str(total),
            passed=total == 4 * fundamental and total % 4 == 0))
    return verdicts


# -- diamond tables ---------------------------------------------------------------

@dataclass(frozen=True)
class DiamondTable:
    degree: int
    cells: dict  # (q, i) -> dim

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "cells": [[q, i, v] for (q, i), v in sorted(self.cells.items())]}

    def render_text(self) -> str:
        if not self.cells:
            return f"degree {self.degree}: empty"
        qs = sorted({q for q, _ in self.cells})
        is_ = sorted({i for _, i in self.cells})
        width = max(len(str(v)) for v in self.cells.values())
        width = max(width, max(len(str(q)) for q in qs), 2)
        lines = [f"degree {self.degree} diamond (rows i, columns q)"]
        header = " i\\q |" + "".join(str(q).rjust(width + 1) for q in qs)
        lines.append(header)
        lines.append("-" * len(header))
        for i in reversed(is_):
            cells = "".join(
                (str(self.cells.get((q, i), "")) or "").rjust(width + 1)
                for q in qs)
            lines.append(f"{str(i).rjust(4)} |{cells}")
        return "\n".join(lines)


def diamond_report(big: Bigrading, degree: int) -> DiamondTable:
    cells = {}
    for (p, q, i), sub in big.components.items():
        if p + q != degree or sub.dim == 0:
            continue
        cells[(q, i)] = sub.dim
    return DiamondTable(degree, cells)


# -- instance orchestration --------------------------------------------------------

@dataclass
class InstanceReport:
    config: InstanceConfig
    header: str
    dims: dict
    profile: NilpotenceProfile
    m_scalar: str
    verdicts: list
    tables: list
    # Seconds per phase, kept out of to_json() so reports are byte-identical.
    timings: dict

    @property
    def all_asserted_passed(self) -> bool:
        return all(v.passed for v in self.verdicts if v.asserted)

    def to_json(self) -> dict:
        return {
            "header": self.header,
            "instance": {"n": self.config.n, "b2": self.config.b2,
                         "tail": [str(t) for t in self.config.resolved_tail()],
                         "seed": self.config.seed},
            "dims": {str(d): v for d, v in sorted(self.dims.items())},
            "profile": self.profile.to_json(),
            "m_bracket_scalar": self.m_scalar,
            "verdicts": [v.to_json() for v in self.verdicts],
            "tables": self.tables,
            "all_asserted_passed": self.all_asserted_passed,
        }


def build_instance(cfg: InstanceConfig) -> GradedAlgebra:
    space = make_standard_space(cfg.b2, cfg.resolved_tail())
    return build_verbitsky(space, cfg.n, seed=cfg.seed)


def run_instance(cfg: InstanceConfig,
                 alg: Optional[GradedAlgebra] = None) -> InstanceReport:
    timings = {}
    t0 = time.perf_counter()
    if alg is None:
        alg = build_instance(cfg)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    frame = build_frame(alg.space, seed=cfg.seed)
    module = algebra_module(alg)
    fc = frame_calculus(module, frame)
    big = bigrading(module, fc)
    del module  # the checks read only fc: free the module's L and Lambda tables
    timings["operators"] = time.perf_counter() - t0

    verdicts = []
    t0 = time.perf_counter()
    m_powers = GradedPowers(fc.M)  # shared by the profile and the weight table
    profile = nilpotence_profile(m_powers)
    verdicts += check_even_nagai(profile, alg.n)
    verdicts += check_m_degree2(fc)
    rep = verify_derivation(alg, fc.M, seed=cfg.seed)
    verdicts.append(Verdict(
        claim=f"derivation identity for M on {rep.trials} random pairs",
        expected="all pairs", observed="all pass" if rep.passed else "failures",
        passed=rep.passed,
        witness="" if rep.passed else str(rep.failures[0])))
    verdicts += check_sl2_suite(fc)
    verdicts += check_level_reformulation(big, alg.n)
    verdicts += check_condition_26(fc, big, alg.n)
    timings["operator_checks"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    left, right, cmp_ok = compare_gr_dims(m_powers, big, alg.n)
    del m_powers  # free the ladder of M before those of L_beta and L_sbar
    verdicts.append(Verdict(
        claim="graded weight dims of M match the bigraded perverse sums",
        expected="tables equal", observed="equal" if cmp_ok else "differ",
        passed=cmp_ok))
    cc = crosscheck_perverse_weight(GradedPowers(fc.L_beta), alg.n)
    verdicts.append(Verdict(
        claim="perverse chain equals the reindexed weight chain of L_beta",
        expected="exact subspace equality",
        observed="equal" if cc else "differ", passed=cc))
    ch = conjugate_hodge_check(GradedPowers(fc.L_sbar), big, alg.n)
    verdicts.append(Verdict(
        claim="weight chain of L_sbar is the conjugate Hodge chain",
        expected="exact subspace equality",
        observed="equal" if ch else "differ", passed=ch))
    timings["filtrations"] = time.perf_counter() - t0

    tables = [diamond_report(big, 2).to_json(),
              diamond_report(big, 2 * alg.n).to_json(),
              left.to_json(), right.to_json()]
    return InstanceReport(
        config=cfg, header=REPORT_HEADER, dims=alg.dims(),
        profile=profile, m_scalar=str(fc.m_bracket_scalar),
        verdicts=verdicts, tables=tables, timings=timings)


def exit_code(reports) -> int:
    if isinstance(reports, InstanceReport):
        reports = [reports]
    return 0 if all(r.all_asserted_passed for r in reports) else 1
