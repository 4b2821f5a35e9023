"""The structure-constant table type shared by every algebra in the tower.

Every product in the tower is one `MulTable`: the composition product
(`CDAlgebra.table`), the Jordan product (`AlbertAlgebra.table`, derived from
the composition table and gamma in the Hermitian model, or from the 3x3
matrix units and varsigma in the Tits model), the Albert cross product
(`AlbertAlgebra.cross_table()`, derived from the Jordan table, trace and Gram
data) and the Brown product (`BrownAlgebra.table`, derived from the cross
table, the Gram matrix and zeta).  No table is built by evaluating a
product; the cross and Brown tables are built on first use and cached, in
ints: from the integer forms of the Jordan table and of the cross table
(`MulTable.int_entries`, the entries in order), of the Gram matrix and of
zeta, over one common denominator, and converted to field values by one
`MulTable.from_ints` call, which also sets the new table's integer form.

Each table has an integer form (`MulTable.int_table`, built on first use
and cached): the coefficients scaled by D, the lcm of their denominators (D
is 1 over F_p), grouped by their first index.  Two kernels read it, on the
integer vectors of `linalg.to_ints`: `mul_ints` gives D (x.y) and
`left_ints` gives D L_x, the matrix of y -> D (x.y); both skip the zero
coordinates of their operands, so sparse inputs cost proportionally less.
Every product of the package runs on them.  `MulTable.apply`, the product of
field values, is `to_ints`, `mul_ints` and one `from_ints` on both fields.
The Albert operators work on `mul_ints` and `left_ints` directly.
The closure and automorphism certificates (`linalg.IntSpan.closed`,
`linmaps.is_automorphism`) take the table itself, and check only the basis
pairs i <= j when `MulTable.commutative` says they may: whether
c_ijk = c_jik on the integer coefficients, read once per table with its
integer form, the one record of commutativity in the package.
`MulTable.opposite`, the table of (x, y) -> y.x, is built once from the
integer form: the image-side table with which `is_automorphism` certifies
an anti-automorphism, and the table `verify` reads the right unit law off.
`mul_ints` only tests the coordinates of its operands for zero and
multiplies them, so it runs unchanged on a packed operand in either place,
whose coordinate j is one int holding coordinate j of many vectors
(`linalg.SignedPacking.stack`), and returns their products packed the same
way: the certificates call it once per vector, not once per pair, and size
the slots from `MulTable.int_sum`, a bound on the products.  The isotope
table of `involutions.isotope_automorphism_check` packs nothing: it is read
off the `left_ints` rows of the table and of its opposite.  A vector or a
map is scaled to integers once and no `Fraction` is made in their loops.

`Algebra` is what the three algebras of the tower (`CDAlgebra`,
`AlbertAlgebra`, `BrownAlgebra`) share.  Each sets `field`, `dim`,
`basis_tag`, `table`, `unit_coords`, `carrier` and `elem` (its element
class; whether the product commutes is its table's to say), and inherits the
product through its table (`mul_raw`; `BrownAlgebra` builds its table on
first use), element construction, the unit, zero and standard basis, seeded
sampling, `linmap` (a `LinMap` on the algebra's carrier space and basis),
`linmap_of` (the map of a linear function on coordinate tuples, read off the
images of the standard basis vectors; the coordinate maps of `involutions`
and `brown` are built this way, and their lifts by `linmaps.block_diag_map`)
and equality by basis tag.  `Elem` is the element base class: an immutable
(algebra, coords) pair with addition, negation and scaling, which raises its
class's `mismatch` error when elements of different algebras are combined.
A coordinate or a scale factor is a field value: an int, or a `Fraction`
over Q (`FieldSpec.coerce`); anything else raises `MixedFields`.

Every element has one JSON form, named by its algebra's basis tag:
`{"algebra": basis_tag, "coords": [field.scalar_str(v), ...]}`, written by
`Elem.to_json`.  `Elem.from_json(algebra, text)` loads it only into the
algebra with that tag, raising the class's `mismatch` error otherwise (so a
Hermitian element is not loaded under another gamma, nor a Brown element
under another zeta), and raises ValueError on a malformed document.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from .errors import AlgebraMismatch
from .fields import FieldSpec
from .linalg import from_ints, identity, lowest_terms, to_ints, transpose
from .linmaps import LinMap

# There is a single pure-Python implementation of every kernel.  The name is
# kept because `brownalg.BACKEND` and the benchmark harness report it.
BACKEND = "pure"


class MulTable:
    """Sparse bilinear map V x V -> V given by entries (i, j, k, coeff):
    out_k = sum coeff * x_i * y_j."""

    __slots__ = ("n", "entries", "_int", "_sum", "_commutative", "_opposite")

    def __init__(self, n: int, entries):
        self.n = n
        self.entries = tuple(entries)
        self._int = None
        self._opposite = None

    @classmethod
    def from_ints(cls, n: int, keys, ints, den: int, field: FieldSpec) -> "MulTable":
        """The table of the entries (i, j, k, c) with c = ints / den nonzero,
        for the keys (i, j, k) in their order, converted by one `from_ints`
        call; its integer form is set as `int_table` would compute it from
        the entries, from the ints in lowest terms (`lowest_terms`)."""
        d, ints = lowest_terms(list(ints), den, field)
        keys = [key for key, v in zip(keys, ints) if v]
        ints = [v for v in ints if v]
        table = cls(n, [(*key, c) for key, c in zip(keys, from_ints(ints, d, field))])
        table._set_int(d, ints)
        return table

    def int_table(self):
        """(D, rows): D the lcm of the denominators of the coefficients (1
        over F_p) and rows[i] the (j, k, D c) of the entries with first index
        i, in ints; built on first use and cached."""
        if self._int is None:
            D = math.lcm(*[c.denominator for _, _, _, c in self.entries])
            self._set_int(D, [c.numerator * (D // c.denominator) for _, _, _, c in self.entries])
        return self._int

    def _set_int(self, den: int, ints):
        """Keep the integer form over den, with ints[e] = den c for entry e,
        and read `int_sum` and `commutative` off it in the same pass.  The
        table is commutative when, for every i, the (j, k, D c) of the
        entries (i, j, k, c) and the (j, k, D c) of the entries (j, i, k, c)
        are the same, compared sorted, row by row, up to the first row that
        differs: then c_ijk = c_jik.  Equal integers are equal field values,
        so True is exact.  False is exact too when no key (i, j, k) repeats
        and no coefficient is 0, as in every table the package builds; a
        table that splits a coefficient over repeated keys unlike its
        mirror, lists a 0, or over F_p holds integers that differ by a
        multiple of p reads False, which costs the certificates their
        suffix mode and never a verdict."""
        rows = [[] for _ in range(self.n)]
        cols = [[] for _ in range(self.n)]
        bound = [0] * self.n
        for (i, j, k, _), v in zip(self.entries, ints):
            rows[i].append((j, k, v))
            cols[j].append((i, k, v))
            bound[k] += abs(v)
        self._int = (den, rows)
        self._sum = max(bound, default=0)
        self._commutative = all(sorted(r) == sorted(c) for r, c in zip(rows, cols))

    @property
    def commutative(self) -> bool:
        """Whether x.y = y.x, read once with the integer form (`_set_int`):
        the one decision of the certificates (`linalg.IntSpan.closed`,
        `linmaps.is_automorphism`) to check only the basis pairs i <= j."""
        self.int_table()
        return self._commutative

    def int_entries(self):
        """The entries as (i, j, k, D c) in their order, D from `int_table`."""
        rows = [iter(row) for row in self.int_table()[1]]
        return [(i, *next(rows[i])) for i, _, _, _ in self.entries]

    def int_sum(self) -> int:
        """The largest sum of |D c| over the integer entries into one output
        coordinate, so |mul_ints(x, y)[k]| <= int_sum() max|x| max|y|: the
        bound the packed certificates size their slots from, read with the
        integer form (`_set_int`)."""
        self.int_table()
        return self._sum

    def opposite(self) -> "MulTable":
        """The table of the opposite product (x, y) -> y.x: the entries
        (j, i, k, c) in entry order, built once and cached, with this
        table's integer coefficients over the same D, so its integer rows
        are this table's with i and j swapped; an anti-automorphism is an
        automorphism onto the opposite product (`linmaps.is_automorphism`
        with this table as its target)."""
        if self._opposite is None:
            self._opposite = MulTable(self.n, [(j, i, k, c) for i, j, k, c in self.entries])
            self._opposite._set_int(self.int_table()[0], [c for *_, c in self.int_entries()])
        return self._opposite

    def apply(self, x, y, field: FieldSpec):
        """x.y for field values: `mul_ints` on the `to_ints` forms of x and y,
        converted back once."""
        dx, xi = to_ints(x, field)
        dy, yi = to_ints(y, field)
        return from_ints(self.mul_ints(xi, yi), self.int_table()[0] * dx * dy, field)

    def mul_ints(self, x, y):
        """D (x.y) for integer vectors x and y, D from `int_table`."""
        out = [0] * self.n
        for xv, row in zip(x, self.int_table()[1]):
            if xv:
                for j, k, c in row:
                    yv = y[j]
                    if yv:
                        out[k] += c * xv * yv
        return out

    def left_ints(self, x):
        """D L_x, the matrix of y -> D (x.y), for an integer vector x, as a
        list of row lists."""
        rows = [[0] * self.n for _ in range(self.n)]
        for xv, grp in zip(x, self.int_table()[1]):
            if xv:
                for j, k, c in grp:
                    rows[k][j] += c * xv
        return rows


class Algebra:
    """Base of the algebras of the tower; see the module docstring for the
    attributes each subclass sets."""

    sample_bound = 4

    def mul_raw(self, x, y):
        return self.table.apply(x, y, self.field)

    def element(self, coords) -> "Elem":
        coords = tuple(map(self.field.coerce, coords))
        if len(coords) != self.dim:
            raise ValueError(f"need {self.dim} coordinates, got {len(coords)}")
        return self.elem(self, coords)

    def unit(self) -> "Elem":
        return self.elem(self, self.unit_coords)

    def zero(self) -> "Elem":
        return self.elem(self, (self.field.zero(),) * self.dim)

    def basis(self):
        return [self.elem(self, e) for e in identity(self.dim, self.field)]

    def sample(self, rng: random.Random, bound: int | None = None) -> "Elem":
        bound = self.sample_bound if bound is None else bound
        return self.elem(self, self.field.sample_vector(rng, self.dim, bound))

    def linmap(self, matrix) -> LinMap:
        """`matrix` as a map on this algebra's carrier space and basis."""
        return LinMap(matrix, self.field, self.carrier, self.basis_tag)

    def linmap_of(self, fn) -> LinMap:
        """The map whose column j is fn(e_j), for a linear function `fn` on
        coordinate tuples."""
        return self.linmap(transpose([fn(e) for e in identity(self.dim, self.field)]))

    def __eq__(self, other):
        return type(other) is type(self) and self.basis_tag == other.basis_tag

    def __hash__(self):
        return hash(self.basis_tag)

    def __repr__(self):
        return f"{type(self).__name__}({self.basis_tag})"


@dataclass(frozen=True)
class Elem:
    """An element of an `Algebra`; `mismatch` is the error raised when two
    elements of different algebras are combined."""

    algebra: Algebra
    coords: tuple

    mismatch = AlgebraMismatch

    def _check(self, other):
        if not isinstance(other, type(self)) or other.algebra != self.algebra:
            raise self.mismatch("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        f = self.algebra.field
        return type(self)(self.algebra, tuple(map(f.add, self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        f = self.algebra.field
        return type(self)(self.algebra, tuple(map(f.sub, self.coords, other.coords)))

    def __neg__(self):
        f = self.algebra.field
        return type(self)(self.algebra, tuple(map(f.neg, self.coords)))

    def scale(self, c):
        f = self.algebra.field
        c = f.coerce(c)
        return type(self)(self.algebra, tuple(f.mul(c, a) for a in self.coords))

    def to_json(self) -> str:
        """The element as {"algebra": basis tag, "coords": [value strings]}."""
        s = self.algebra.field.scalar_str
        return json.dumps({"algebra": self.algebra.basis_tag,
                           "coords": [s(v) for v in self.coords]})

    @classmethod
    def from_json(cls, algebra: Algebra, text: str) -> "Elem":
        """The element of `algebra` that `to_json` wrote.  A document of
        another algebra raises `mismatch`; a malformed one, ValueError."""
        doc = json.loads(text)
        coords = doc.get("coords") if isinstance(doc, dict) else None
        if not (isinstance(coords, list) and all(isinstance(v, str) for v in coords)
                and isinstance(doc.get("algebra"), str)):
            raise ValueError('an element is {"algebra": tag, "coords": [value strings]}')
        if doc["algebra"] != algebra.basis_tag:
            raise cls.mismatch(f"element of {doc['algebra']} loaded into {algebra.basis_tag}")
        return Algebra.element(algebra, list(map(algebra.field.parse_scalar, coords)))
