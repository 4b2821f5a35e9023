"""The structure-constant table type shared by every algebra in the tower.

`MulTable.apply` is the one bilinear-product kernel for both fields: the
entries are grouped by their first index and zero coordinates of either
operand are skipped, so sparse inputs cost proportionally less.  Over F_p
the accumulated integers are reduced mod p once, at the end.
"""

from __future__ import annotations

from .fields import PRIME, FieldSpec

# There is a single pure-Python implementation of every kernel.  The name is
# kept because `brownalg.BACKEND` and the benchmark harness report it.
BACKEND = "pure"


class MulTable:
    """Sparse bilinear map V x V -> V given by entries (i, j, k, coeff):
    out_k = sum coeff * x_i * y_j."""

    __slots__ = ("n", "entries", "_by_i")

    def __init__(self, n: int, entries):
        self.n = n
        self.entries = tuple(entries)
        self._by_i = None

    def _grouped(self):
        if self._by_i is None:
            by_i = [[] for _ in range(self.n)]
            for i, j, k, c in self.entries:
                by_i[i].append((j, k, c))
            self._by_i = by_i
        return self._by_i

    def apply(self, x, y, field: FieldSpec):
        out = [field.zero()] * self.n
        for i, row in enumerate(self._grouped()):
            xv = x[i]
            if xv:
                for j, k, c in row:
                    yv = y[j]
                    if yv:
                        out[k] += c * xv * yv
        if field.kind == PRIME:
            p = field.p
            return tuple(v % p for v in out)
        return tuple(out)

    def left_matrix(self, x, field: FieldSpec):
        """Matrix of y -> apply(x, y) in the standard basis."""
        rows = [[field.zero()] * self.n for _ in range(self.n)]
        for i, grp in enumerate(self._grouped()):
            xv = x[i]
            if xv:
                for j, k, c in grp:
                    rows[k][j] = field.add(rows[k][j], field.mul(c, xv))
        return tuple(tuple(r) for r in rows)
