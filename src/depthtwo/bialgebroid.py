"""The right bialgebroid carried by the B-central tensor square.

T is the subspace of B-central elements of A (x)_B A; its product is
t*u = u^1 t^1 (x) t^2 u^2 (the endomorphism composition transported
through t -> (x (x) y -> x t^1 (x) t^2 y)).  The base is the centralizer
R = C_A(B), with source map r -> 1 (x) r, target map r -> r (x) 1 and
counit the multiplication back to A.  The depth-two decisions read T only
as an R-bimodule and through its R-generators, so T's product, unit, s_R,
t_R and counit are built and validated on first read, and T (x)_R T is
built on first read, by the bialgebroid and Galois side alone.

The coproduct is pinned by the isomorphism
T (x)_R T  ~  (A (x)_B A (x)_B A)^B,  t (x) u  ->  t^1 (x) t^2 u^1 (x) u^2:
the forward map is certified an isomorphism by one subspace equality, the
preimage of t^1 (x) 1 (x) t^2 defines Delta, and the quasibase sum formula
is recomputed independently as a cross-check.  Every
bialgebroid identity is then machine-verified by an audit that maps both
sides of each equation into the realized triple (or quadruple) tensor
power and compares coordinates exactly, in each variable where the
identity is multiplicative or module-linear on algebra generators only.
"""

from __future__ import annotations

from .algebras import (AlgebraError, Extension, FiniteAlgebra, SelfCheckError, centralizer,
                       field_as_algebra, first_failure, homomorphism_cases, per_extension)
from .bimodules import (Bimodule, DualBasis, DualBasisTensor, QuasibaseSet, _generator_maps,
                        _require_right_quasibase, _summand_solve, b_centralized,
                        balanced_tensor, bimodule_generators, hom_space, left_module_bimodule,
                        t_space, tensor_power, tensor_square)
# re-exported: read here by perfbench's test_rebinding_reaches_every_importing_module
from .bimodules import coproduct_summand_test  # noqa: F401
from .linalg import Matrix, Subspace, combine, solve_in_span, sum_nonzeros


class TCore:
    """Quasibase-free part of the bialgebroid: base R, A acting on T's basis
    (``left_maps[c]`` is y -> y . t_c and ``right_maps[c]`` y -> t_c . y, into
    the tensor square), the R-actions on T read off them, and T's generators
    as a left and as a right R-module, built with the core; the realized
    quotient T (x)_R T, built on first read; the algebra T, s_R, t_R and the
    counit, built and validated together on first read.

    The depth-two decisions read T only as an R-bimodule and through its
    R-generators, so they never build T's product or T (x)_R T.
    """

    __slots__ = ("A", "ts", "R", "R_alg", "incl_R", "t_space", "t_basis", "t_items",
                 "left_maps", "right_maps", "lam_R", "rho_R", "left_gens", "right_gens",
                 "_tt", "_algebra")

    def __init__(self, ext: Extension):
        # the algebra, not the extension: the extension caches this core
        A = self.A = ext.A
        ts = tensor_square(ext)
        self.ts = ts
        self.R = centralizer(ext)
        self.R_alg, self.incl_R = self.R.as_algebra()
        self.t_space = t_space(ext)
        self.t_basis = self.t_space.basis
        if not self.t_basis:
            raise AlgebraError("B-central tensor square is zero")
        # every product, contraction and witness column reads these lifts
        self.t_items = [ts.lift_items(t) for t in self.t_basis]
        self._tt = None
        self._algebra = None

        self.left_maps = _generator_maps(ts.left_action, self.t_basis)
        self.right_maps = _generator_maps(ts.right_action, self.t_basis)
        self.lam_R = self._r_actions(self.left_maps)
        self.rho_R = self._r_actions(self.right_maps)
        # indices of basis vectors of T generating it over R on one side; the
        # right quasibase and the dual basis read the left ones
        self.left_gens = bimodule_generators(left_module_bimodule(self.R_alg, self.dim,
                                                                  self.lam_R))
        self.right_gens = bimodule_generators(Bimodule(
            field_as_algebra(A.field), self.R_alg, self.dim,
            [Matrix.identity(A.field, self.dim)], self.rho_R))

    @property
    def tt(self) -> Bimodule:
        """T (x)_R T as a realized quotient, built on first read."""
        if self._tt is None:
            T = self.r_bimodule()
            self._tt = balanced_tensor(T, T)
        return self._tt

    T_alg = property(lambda self: self._algebra_part()[0])
    unit_T = property(lambda self: self._algebra_part()[1])
    s_R = property(lambda self: self._algebra_part()[2])
    t_R = property(lambda self: self._algebra_part()[3])
    eps = property(lambda self: self._algebra_part()[4])

    def _algebra_part(self) -> tuple[FiniteAlgebra, dict, Matrix, Matrix, Matrix]:
        """(T_alg, unit_T, s_R, t_R, eps), built and validated on the first read."""
        if self._algebra is not None:
            return self._algebra
        A = self.A
        field = A.field
        ts = self.ts
        m = self.dim
        tmul = [[self._tee_product(c, d) for d in range(m)] for c in range(m)]
        unit_T = self.t_coords(ts.class_of(A.unit, A.unit),
                               "class of 1(x)1 escaped the B-central subspace")
        # validation re-checks associativity and the unit laws of T
        T_alg = FiniteAlgebra(field, tmul, unit_T)

        incl = self.incl_R.cols
        s_R = Matrix.from_columns(field, [
            self.t_coords(ts.class_of(A.unit, r), "source map image escaped T")
            for r in incl], nrows=m)
        t_R = Matrix.from_columns(field, [
            self.t_coords(ts.class_of(r, A.unit), "target map image escaped T")
            for r in incl], nrows=m)
        eps = Matrix.from_columns(field, [self._counit(c) for c in range(m)],
                                  nrows=self.R_alg.dim)
        self._algebra = (T_alg, unit_T, s_R, t_R, eps)
        return self._algebra

    # -- coordinates ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.t_basis)

    def replaced(self, **kw) -> "TCore":
        """Shallow copy with named fields swapped out (for mutation tests).

        Any field may be named, tt included, and any of T_alg, unit_T, s_R,
        t_R and eps; the copy shares the rest, tt and the algebra part built
        here if need be.  Any other name raises TypeError.
        """
        clone = TCore.__new__(TCore)
        for name in TCore.__slots__[:-2]:
            setattr(clone, name, kw.pop(name, getattr(self, name)))
        clone._tt = kw.pop("tt") if "tt" in kw else self.tt
        clone._algebra = tuple(kw.pop(name, getattr(self, name))
                               for name in ("T_alg", "unit_T", "s_R", "t_R", "eps"))
        if kw:
            raise TypeError(f"replaced() got an unexpected keyword argument {next(iter(kw))!r}")
        return clone

    def r_bimodule(self) -> Bimodule:
        """T as an R-R-bimodule through lam_R and rho_R."""
        return Bimodule(self.R_alg, self.R_alg, self.dim, self.lam_R, self.rho_R)

    def t_coords(self, ts_vec: dict, err: str) -> dict:
        coords = self.t_space.coords(ts_vec)
        if coords is None:
            raise AlgebraError(err)
        return coords

    def quasibase_in_T(self, rqb: QuasibaseSet) -> list[tuple[Matrix, dict]]:
        """The pairs (gamma_i, u_i) of a right quasibase, u_i in T coordinates."""
        return [(gamma, self.t_coords(u, "quasibase tensor escaped T"))
                for gamma, u in rqb.pairs]

    def _counit(self, c: int) -> dict:
        """R coordinates of eps(t_c) = t_c^1 t_c^2."""
        A = self.A
        coords = self.R.space.coords(sum_nonzeros(
            ((x, A.nonzeros[s][t].items()) for (s, t), x in self.t_items[c]), A.field.char))
        if coords is None:
            raise AlgebraError("counit value escaped R")
        return coords

    def _r_actions(self, maps: list[Matrix]) -> list[Matrix]:
        """The actions on T of R's basis vectors r: column c of r's action is
        maps[c] applied to r in A coordinates, read in T coordinates."""
        return [Matrix.from_columns(self.A.field, [
            self.t_coords(m.image(r), "R-action left the B-central subspace") for m in maps],
            nrows=self.dim) for r in self.incl_R.cols]

    def _tee_product(self, c: int, d: int) -> dict:
        """T coordinates of t_c * t_d = u^1 t^1 (x) t^2 u^2."""
        nz = self.A.nonzeros
        terms = [(c1 * c2, nz[p][s], nz[t][q])
                 for (s, t), c1 in self.t_items[c] for (p, q), c2 in self.t_items[d]]
        return self.t_coords(self.ts.class_of_sum(terms),
                             "product of B-central elements escaped T")



@per_extension
def t_core(ext: Extension) -> TCore:
    return TCore(ext)


class WitnessError(SelfCheckError):
    """The tensor-power comparison isomorphism failed to materialize."""


def _certify(fwd: Matrix, target: Subspace, power: str) -> None:
    """Raise WitnessError unless fwd maps isomorphically onto target.

    That holds exactly when the columns are independent and span target.
    Both spans are kept as canonical reduced bases, so the equality is exact.
    """
    image = Subspace.span(fwd.field, fwd.nrows, fwd.cols)
    if image.dim != fwd.ncols:
        raise WitnessError(f"forward map into the {power} power is not injective")
    if image != target:
        raise WitnessError(f"forward image is not the B-central {power} power")


class TripleTensorWitness:
    """Realized isomorphisms T(x)_R T ~ (A(x)_B A(x)_B A)^B and the
    fourfold analogue.

    Each forward column appends one T factor at a time: W3(t_c (x) t_d) is
    t_d appended to t_c in A (x)_B A, and W4(x (x) t) is t appended to
    W3(x), each through the right action of A realized on the previous
    power (``append``).  (T (x)_R T) (x)_R T is the image of an idempotent
    (``DualBasisTensor``) built from the extension's one dual basis (m_j,
    phi_j) of T over R (``left_r_projectivity``); without one it raises
    WitnessError.  Its classes lift to sums x_j (x) m_j, so W4 is read off
    the columns of ``w3`` appended to each m_j, by linearity.  No quasibase
    enters, and no inverse is formed: ``_certify`` shows each forward map to
    be an isomorphism onto the B-central power, and Delta reads preimages
    under the triple one.  A preimage is unique, so Delta is the matrix the
    paper's quasibase formula gives whenever a quasibase exists.  It is
    built from the extension and keeps the extension's core, not the
    extension, which caches it.
    """

    __slots__ = ("core", "q3", "q3b", "w3", "q4", "q4b", "ttt", "w4")

    def __init__(self, ext: Extension):
        core = self.core = t_core(ext)
        field = core.A.field
        q3 = tensor_power(ext, 3)
        q4 = tensor_power(ext, 4)
        self.q3 = q3
        self.q4 = q4
        self.q3b = b_centralized(ext, q3)
        self.q4b = b_centralized(ext, q4)

        # W3(t_c (x) t_d) = t_c^1 (x) t_c^2 t_d^1 (x) t_d^2, one column per class
        self.w3 = core.tt.matrix_of(
            q3.dim, lambda c, d: self.append(q3, core.ts, core.t_basis[c], d))
        _certify(self.w3, self.q3b, "triple")

        # the quadruple stage: (T (x)_R T) (x)_R T, one column per class; a
        # class (x_j) lifts to sum_j x_j (x) m_j, at ambient index j * dim tt + c
        # for the coordinate c of x_j, and W4 sends it to sum_j W3(x_j) appended
        # with m_j: each column of w3 is appended to each m_j once
        db = left_r_projectivity(ext)
        if db is None:
            raise WitnessError("T is not left R-projective: no dual basis realizes "
                               "the quadruple power's source")
        ttt = self.ttt = DualBasisTensor(core.tt, core.r_bimodule(), db)
        appended = Matrix.from_columns(field, [
            sum_nonzeros(((y, self.append(q4, q3, col, f).items()) for f, y in m.items()),
                         field.char)
            for m in db.elements for col in self.w3.cols], nrows=q4.dim)
        self.w4 = appended @ Matrix.from_columns(field, ttt.basis, nrows=ttt.image.ambient_dim)
        _certify(self.w4, self.q4b, "quadruple")

    # -- forward maps ----------------------------------------------------

    def append(self, power: Bimodule, prev: Bimodule, v: dict, d: int) -> dict:
        """Coordinates in ``power`` = prev (x)_B A of v t_d^1 (x) t_d^2.

        That is the sum of x (v.e_s) (x) e_t over the lift items ((s, t), x)
        of t_d, with v.e_s read through prev's realized right action of A.
        The sum does not depend on the lift: v.(a b) (x) a' = (v.a) (x) b a'
        for b in B.
        """
        right = prev.right_action
        return power.class_of_sum([(x, right[s].image(v), {t: 1})
                                   for (s, t), x in self.core.t_items[d]])

    # -- distinguished images --------------------------------------------

    def _t_items(self, tcoords: dict):
        """Items ((s, t), coefficient) of the sparse lift of t given in T coordinates."""
        t_items = self.core.t_items
        return [(st, x * c1) for c, x in tcoords.items() for st, c1 in t_items[c]]

    def sandwich3(self, tcoords: dict, mid: dict) -> dict:
        """Q3 coordinates of t^1 (x) mid (x) t^2 for t given in T coordinates."""
        return self.q3.reduce_items([((s, a, t), c * y) for (s, t), c in self._t_items(tcoords)
                                     for a, y in mid.items()])

    def sandwich4_unit(self, tcoords: dict) -> dict:
        """Q4 coordinates of t^1 (x) 1 (x) 1 (x) t^2."""
        unit = self.core.A.unit.items()
        return self.q4.reduce_items([((s, u1, u2, t), c * x1 * x2)
                                     for (s, t), c in self._t_items(tcoords)
                                     for u1, x1 in unit for u2, x2 in unit])


class RightBialgebroid:
    """The assembled right bialgebroid: core data plus coproduct and witness."""

    __slots__ = ("core", "witness", "Delta")

    def __init__(self, core: TCore, witness: TripleTensorWitness, Delta: Matrix):
        self.core = core
        self.witness = witness
        self.Delta = Delta

    def replaced(self, **kwargs) -> "RightBialgebroid":
        """Copy with structure maps swapped out (exists for mutation tests);
        names other than core and Delta go to ``TCore.replaced``."""
        core = kwargs.pop("core", self.core)
        delta = kwargs.pop("Delta", self.Delta)
        if kwargs:
            core = core.replaced(**kwargs)
        return RightBialgebroid(core, self.witness, delta)


def _delta_from_witness(core: TCore, witness: TripleTensorWitness) -> Matrix:
    """Delta(t_c) = the preimage of t_c^1 (x) 1 (x) t_c^2 under W3.

    ``_certify`` has shown W3 injective, so each preimage is unique; W3 Delta
    is then compared with the images exactly.
    """
    field = core.A.field
    w3 = witness.w3
    images = [witness.sandwich3(core.T_alg.basis_vector(c), core.A.unit)
              for c in range(core.dim)]
    cols = []
    for img in images:
        coeffs = solve_in_span(img, w3.cols, field)
        if coeffs is None:
            raise WitnessError("t^1 (x) 1 (x) t^2 has no preimage in T (x)_R T")
        cols.append(coeffs)
    delta = Matrix.from_columns(field, cols, nrows=core.tt.dim)
    if w3 @ delta != Matrix.from_columns(field, images, nrows=w3.nrows):
        raise WitnessError("W3 o Delta is not t -> t^1 (x) 1 (x) t^2")
    return delta


def _delta_direct(core: TCore, rqb: QuasibaseSet) -> Matrix:
    """Delta(t) = sum_i (t^1 (x) gamma_i(t^2)) (x)_R u_i, the quasibase formula."""
    field = core.A.field
    pairs = core.quasibase_in_T(rqb)
    cols = []
    for c in range(core.dim):
        terms = []
        for gamma, u_t in pairs:
            items = [((s, l), c1 * a) for (s, t), c1 in core.t_items[c]
                     for l, a in gamma.cols[t].items()]
            w = core.t_coords(core.ts.reduce_items(items), "coproduct first leg escaped T")
            terms.append((1, w, u_t))
        cols.append(core.tt.class_of_sum(terms))
    return Matrix.from_columns(field, cols, nrows=core.tt.dim)


def build_T(ext: Extension, rqb: QuasibaseSet) -> RightBialgebroid:
    """The extension's one bialgebroid ``build_T_quasibase_free(ext)``, rqb verified.

    The coproduct forced by the witness must agree with the direct
    quasibase sum; a mismatch means the quasibase is corrupt.
    """
    _require_right_quasibase(ext, rqb)
    free = build_T_quasibase_free(ext)
    if free.Delta != _delta_direct(free.core, rqb):
        raise SelfCheckError("witness coproduct disagrees with the quasibase formula")
    return free


@per_extension
def build_T_quasibase_free(ext: Extension) -> RightBialgebroid:
    """T with the coproduct read as preimages under the witness, cached.

    Reads no quasibase, so the quasibase-independent audits may use it;
    raises WitnessError when a forward map is not an isomorphism onto its
    B-central power.
    """
    # T's algebra is validated before any witness work
    t_core(ext).T_alg
    witness = TripleTensorWitness(ext)
    core = witness.core
    return RightBialgebroid(core, witness, _delta_from_witness(core, witness))


# -- the axiom audit -----------------------------------------------------


class AuditReport:
    """Ordered named checks; a failing check keeps its first counterexample."""

    def __init__(self):
        self.results: dict[str, tuple[bool, str | None]] = {}
        self._on_generators = True

    def check(self, name: str, cases, full=None):
        """Record whether every (ok, witness) case holds, with the first witness.

        With ``full``, ``cases`` are the generator cases of a reduction and
        ``full`` the scan of every basis tuple in its fixed order.  Passing
        generator cases decide a pass.  When one fails, the full scan runs
        instead, so a failing check names the first failing basis tuple.
        Each reduction leans on identities checked before it, so once a
        check or a generator pass has failed, every later check runs its
        full scan.  Witnesses of generator cases are never reported.
        """
        if full is not None:
            if self._on_generators and first_failure(cases) is None:
                cases = ()
            else:
                self._on_generators = False
                cases = full
        witness = first_failure(cases)
        self._on_generators = self._on_generators and witness is None
        self.results[name] = (witness is None, witness)

    @property
    def all_pass(self) -> bool:
        return all(ok for ok, _ in self.results.values())

    def failing(self) -> list[str]:
        return [name for name, (ok, _) in self.results.items() if not ok]

    def to_json(self):
        return {name: {"pass": ok, **({} if ok else {"witness": wit})}
                for name, (ok, wit) in self.results.items()}

    def to_json_list(self):
        """The same checks as a list of objects carrying their names."""
        return [{"name": name, **entry} for name, entry in self.to_json().items()]


def axiom_audit(bgd: RightBialgebroid) -> AuditReport:
    """Machine-verify every bialgebroid identity.

    Each identity is linear in every variable, so basis elements suffice,
    and one that is multiplicative or module-linear in a variable is checked
    with that variable on generators only: gens(R) = R.generating_indices(),
    gens(T) likewise, plus 1_R where its value is needed.  The failure path
    of ``AuditReport.check`` rescans every basis tuple.  R and T are
    associative (R is a subalgebra of A, T is validated), and lam_R, rho_R
    and the right R-actions of T (x)_R T and of the triple power are the
    tensor square's actions of A restricted to R: a unital representation
    and unital anti-representations.  With that and the checks before it:

    - ``source_homomorphism``, ``target_antihomomorphism``: r_i in gens(R),
      all r_j (``homomorphism_cases``).
    - ``source_target_commute``: r_i, r_j in gens(R).  The x with s(x)
      commuting with t(gens(R)) form a subalgebra (s is a unital
      homomorphism), so all of R; for each x, the y with t(y) commuting with
      s(x) then form one too (t is a unital anti-homomorphism).
    - ``base_bimodule_compatibility``: (t_c, r, 1_R) and (t_c, 1_R, s) for
      r, s in gens(R).  As s_R(1_R) = 1_T, they read t t_R(r) = r.t and
      t s_R(s) = t.s.  The r (s) for which that holds for every t form a
      subalgebra: t t_R(r1 r2) = t t_R(r2) t_R(r1) = r1.(r2.t) and
      t s_R(s1 s2) = (t.s1).s2.  So t t_R(r) s_R(s) = (r.t).s everywhere.
    - ``coproduct_right_linear``: r in {1_R} and gens(R).  The r with
      Delta(t.r) = Delta(t).r for every t form a subalgebra (both actions
      are anti-representations).  At 1_R the triple-power half pins
      W3 Delta(t) = t^1 (x) 1 (x) t^2 on every t; W3 turns the right
      R-action into right multiplication of the last leg, so it follows at
      every r.
    - ``base_balance``: r in gens(R).  r -> s_R(r) on the first leg is
      multiplicative and r -> t_R(r) on the second anti-multiplicative, and
      the two commute, so the r with balance on all of Delta(T) form a
      subalgebra.  Base bimodule compatibility at t = 1_T gives s_R(r) =
      1 (x) r, which W3 turns into r on the middle leg; with W3 Delta above
      the triple-power half holds at every r.
    - ``multiplicativity``: t_c in gens(T), all t_d.  By base balance
      Delta(T) lies in the Takeuchi subspace, where the componentwise
      product of lifts is well defined and associative, and Delta(1_T) =
      1_T (x) 1_T is its unit.  So {x : Delta(xy) = Delta(x)Delta(y) for
      all y} holds 1 and is closed under products: a subalgebra holding
      gens(T).  W3 Delta at t_c t_d is pinned by ``coproduct_right_linear``.
    """
    core = bgd.core
    wit = bgd.witness
    A = core.A
    field = A.field
    R, T, tt, Delta = core.R_alg, core.T_alg, core.tt, bgd.Delta
    m = core.dim
    rdim = R.dim
    r_gens = R.generating_indices()
    tvec = T.basis_vector
    report = AuditReport()
    eye_m = Matrix.identity(field, m)
    # the generator cases also run at 1_R, which index rdim stands for
    one = rdim
    s_R = [*core.s_R.cols, core.s_R.image(R.unit)]
    t_R = [*core.t_R.cols, core.t_R.image(R.unit)]
    lam_R = [*core.lam_R, combine(core.lam_R, R.unit)]
    rho_R = [*core.rho_R, combine(core.rho_R, R.unit)]

    def structure_map(name, f, anti, rows):
        return homomorphism_cases(
            R, f.image, T.mul, core.unit_T, rows, f"{name}(1_R) != 1_T",
            f"{name} not {'anti-' if anti else ''}multiplicative on (r_{{i}}, r_{{j}})", anti)

    def source_target_commute(rs):
        for i in rs:
            for j in rs:
                lhs = T.mul(s_R[i], t_R[j])
                rhs = T.mul(t_R[j], s_R[i])
                yield lhs == rhs, f"images do not commute on (r_{i}, r_{j})"

    # the R-R-bimodule of T is multiplication by t_R and s_R:
    # t * t_R(r) * s_R(s) = r t^1 (x) t^2 s
    def base_bimodule_compatibility(pairs):
        for c in range(m):
            for r, s in pairs:
                via_mul = T.mul(T.mul(tvec(c), t_R[r]), s_R[s])
                via_action = rho_R[s].image(lam_R[r].cols[c])
                yield via_mul == via_action, f"bimodule mismatch at (t_{c}, r_{r}, r_{s})"

    report.check("source_homomorphism", structure_map("s_R", core.s_R, False, r_gens),
                 structure_map("s_R", core.s_R, False, range(rdim)))
    report.check("target_antihomomorphism", structure_map("t_R", core.t_R, True, r_gens),
                 structure_map("t_R", core.t_R, True, range(rdim)))
    report.check("source_target_commute", source_target_commute(r_gens),
                 source_target_commute(range(rdim)))
    report.check("base_bimodule_compatibility",
                 base_bimodule_compatibility([*((r, one) for r in r_gens),
                                              *((one, s) for s in r_gens)]),
                 base_bimodule_compatibility([(r, s) for r in range(rdim)
                                              for s in range(rdim)]))
    report.check("counit_unital", [(core.eps.image(core.unit_T) == R.unit,
                                    "eps(1_T) != 1_R")])
    report.check("coproduct_unital",
                 [(Delta.image(core.unit_T) == tt.class_of(core.unit_T, core.unit_T),
                   "Delta(1_T) != 1_T (x) 1_T")])

    # counit laws through the R-actions: t_c (x) t_d -> eps(t_c) t_d and t_c eps(t_d)
    eps_left = [combine(core.lam_R, col) for col in core.eps.cols]
    eps_right = [combine(core.rho_R, col) for col in core.eps.cols]
    e1 = tt.matrix_of(m, lambda c, d: eps_left[c].cols[d])
    e2 = tt.matrix_of(m, lambda c, d: eps_right[d].cols[c])
    report.check("counit_law_left", [(e1 @ Delta == eye_m, "(eps (x) id) o Delta != id")])
    report.check("counit_law_right", [(e2 @ Delta == eye_m, "(id (x) eps) o Delta != id")])

    # Delta is right R-linear: Delta(t r) = t_(1) (x) t_(2) r
    def coproduct_right_linear(rs):
        incl = [*core.incl_R.cols, core.incl_R.image(R.unit)]
        tt_right = [*tt.right_action, combine(tt.right_action, R.unit)]
        q3_right = {r: combine(wit.q3.right_action, incl[r]) for r in rs}
        for c in range(m):
            sandwich = wit.sandwich3(tvec(c), A.unit)
            for r in rs:
                lhs = Delta.image(rho_R[r].cols[c])
                rhs = tt_right[r].image(Delta.cols[c])
                yield lhs == rhs, f"right R-linearity fails at (t_{c}, r_{r})"
                # reached only once lhs equals rhs, so W3(lhs) stands for both
                yield (wit.w3.image(lhs) == q3_right[r].image(sandwich),
                       f"triple-power image mismatch at (t_{c}, r_{r})")

    # s_R(r) t_(1) (x) t_(2) = t_(1) (x) t_R(r) t_(2)
    def base_balance(rs):
        for r in rs:
            lmul_s = combine(T.left_mults, s_R[r])
            lmul_t = combine(T.left_mults, t_R[r])
            left_map = tt.leg_map(lmul_s, first=True)
            right_map = tt.leg_map(lmul_t, first=False)
            for c in range(m):
                dcol = Delta.cols[c]
                lhs = left_map.image(dcol)
                yield lhs == right_map.image(dcol), f"base balance fails at (t_{c}, r_{r})"
                yield (wit.w3.image(lhs) == wit.sandwich3(tvec(c), core.incl_R.cols[r]),
                       f"triple-power image mismatch at (t_{c}, r_{r})")

    def multiplicativity(cs):
        lifts = [tt.lift_items(col) for col in Delta.cols]
        for c in cs:
            dc = lifts[c]
            for d in range(m):
                prod = T.mul(tvec(c), tvec(d))
                lhs = Delta.image(prod)
                rhs = tt.class_of_sum([(c1 * c2, T.nonzeros[a][e], T.nonzeros[b][f])
                                       for (a, b), c1 in dc for (e, f), c2 in lifts[d]])
                yield lhs == rhs, f"multiplicativity fails at (t_{c}, t_{d})"

    # coassociativity via the quadruple power
    def coassociativity():
        for c in range(m):
            items = tt.lift_items(Delta.cols[c])
            lhs = wit.ttt.class_of_sum([(coeff, Delta.cols[a], tvec(b))
                                        for (a, b), coeff in items])
            rhs = wit.ttt.class_of_sum([(coeff * coeff2, tt.class_of(tvec(a), tvec(e)), tvec(f))
                                        for (a, b), coeff in items
                                        for (e, f), coeff2 in tt.lift_items(Delta.cols[b])])
            yield lhs == rhs, f"coassociativity fails at t_{c}"
            yield (wit.w4.image(lhs) == wit.sandwich4_unit(tvec(c)),
                   f"quadruple-power image mismatch at t_{c}")

    report.check("coproduct_right_linear", coproduct_right_linear([one, *r_gens]),
                 coproduct_right_linear(range(rdim)))
    report.check("base_balance", base_balance(r_gens), base_balance(range(rdim)))
    report.check("multiplicativity", multiplicativity(T.generating_indices()),
                 multiplicativity(range(m)))
    report.check("coassociativity", coassociativity())
    return report


# -- projectivity of T over R --------------------------------------------


@per_extension
def left_r_projectivity(ext: Extension) -> DualBasis | None:
    """A dual basis of T as a left R-module, or None when T is not left
    R-projective; no quasibase involved, and one object per extension.

    By the dual basis lemma T is projective exactly when x = sum_j phi_j(x) . m_j
    for R-generators m_j of T and some phi_j in Hom_R(T, R).  The m_j are the
    core's ``left_gens``, which the right quasibase reads too, the maps
    r -> r . m_j stand for Hom(R, T), and the phi_j are solved for in one
    ``hom_space`` basis of Hom(T, R): the identity is written on the
    generators by ``_summand_solve``, in (number of m_j) * dim Hom(T, R)
    unknowns.  The dual basis has one element per generator and is checked
    on every basis vector of T.
    """
    core = t_core(ext)
    R, field = core.R_alg, ext.A.field
    M = left_module_bimodule(R, core.dim, core.lam_R)
    gens = core.left_gens
    homs = hom_space(M, left_module_bimodule(R, R.dim, R.left_mults))
    elements = [{g: 1} for g in gens]
    phis = _summand_solve(_generator_maps(core.lam_R, elements), homs, gens,
                          Matrix.identity(field, core.dim))
    if phis is None:
        return None
    db = DualBasis(elements, [combine(homs, phi) for phi in phis])
    db.check(core.lam_R, "projectivity dual basis failed reconstruction")
    return db


# -- commutative specialization -------------------------------------------


class FlipReport:
    """Checks for central commutative extensions: T is the full tensor square
    with the Sweedler coproduct and the flip antipode."""

    __slots__ = ("base_is_whole_algebra", "tensor_algebra_product", "sweedler_coproduct",
                 "counit_is_multiplication", "flip_involutive", "flip_antimultiplicative")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def all_pass(self) -> bool:
        return all(getattr(self, k) for k in self.__slots__)


def commutative_flip_check(ext: Extension) -> FlipReport:
    """For commutative A with central iota(B): verify the tensor-algebra shape
    of T, the Sweedler coproduct, eps = mu, and the flip anti-automorphism."""
    from .bimodules import right_d2_quasibase
    A = ext.A
    field = A.field
    n = A.dim
    if not A.is_commutative():
        raise AlgebraError("flip check requires a commutative algebra")
    for v in ext.b_image_subspace().basis:
        if combine(A.left_mults, v) != combine(A.right_mults, v):
            raise AlgebraError("flip check requires iota(B) central in A")
    rqb = right_d2_quasibase(ext)
    if rqb is None:
        raise AlgebraError("extension is not right depth two")
    bgd = build_T(ext, rqb)
    core = bgd.core
    ts = core.ts
    wit = bgd.witness
    m = core.dim
    pairs = [(i, j) for i in range(n) for j in range(n)]

    def pure(i, j):
        return core.t_coords(ts.class_of(A.basis_vector(i), A.basis_vector(j)),
                             "pure tensor escaped T")

    def sweedler(i, j):
        # W3(Delta(class(x (x) y))) = x (x) 1 (x) y
        expected = wit.q3.reduce_items([((i, u, j), cu) for u, cu in A.unit.items()])
        return wit.w3.image(bgd.Delta.image(pure(i, j))) == expected

    eps_in_A = core.incl_R @ core.eps

    # the flip x (x) y -> y (x) x descends and is an involutive anti-automorphism
    swap = Matrix.from_columns(field, [{j * n + i: 1} for i, j in pairs], nrows=n * n)
    tau_q2 = ts.quot.induced(swap)
    tau_cols = [core.t_coords(tau_q2.image(t), "flip left T") for t in core.t_basis]
    tau = Matrix.from_columns(field, tau_cols, nrows=m)

    return FlipReport(
        base_is_whole_algebra=core.R_alg.dim == n,
        # A is commutative, so the componentwise product t^1 u^1 (x) t^2 u^2 is,
        # term by term, T's product u^1 t^1 (x) t^2 u^2: T is the tensor
        # algebra exactly when it fills the tensor square
        tensor_algebra_product=m == ts.dim,
        sweedler_coproduct=all(sweedler(i, j) for i, j in pairs),
        counit_is_multiplication=all(eps_in_A.image(pure(i, j)) == A.nonzeros[i][j]
                                     for i, j in pairs),
        flip_involutive=tau @ tau == Matrix.identity(field, m),
        flip_antimultiplicative=first_failure(homomorphism_cases(
            core.T_alg, tau.image, core.T_alg.mul, core.unit_T, core.T_alg.generating_indices(),
            "flip does not fix 1_T", "flip not anti-multiplicative on (t_{i}, t_{j})",
            anti=True)) is None)
