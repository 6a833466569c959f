"""Kostant's q-partition function over a whole box, from its definition alone.

By definition ℘_q(v) is the coefficient of x^v in the product over the
positive roots α of 1/(1 - q·x^α). Multiplying a series by one factor
1/(1 - q·x^α) is one ascending pass P[v] += q·P[v - α] over the box (the
unbounded-knapsack recurrence), so one pass per root, started from P[0] = 1,
fills ℘_q at every point of the box. The oracle reads nothing but
``rs.positive_roots``: it shares no code with the kernels, the Weyl sums or
the Kostka-Foulkes module.

Each polynomial is one Python int with one 64-bit lane per coefficient
(Kronecker packing), so q· is a shift by 64 bits. A pass at q = 1 first
bounds every coefficient, and a box whose counts would not fit a lane is
refused.
"""

from array import array

from qkostant.qpoly import QPoly

_LANE = 64


class QPartitionBox:
    """℘_q(c1, c2) for 0 <= c1 <= top1 and 0 <= c2 <= top2; box[c1, c2] is a QPoly."""

    def __init__(self, roots, top1: int, top2: int) -> None:
        self._width = top2 + 1
        size = (top1 + 1) * self._width
        counts = self._fill(roots, top1, [1] + [0] * (size - 1), 0)
        if max(counts) >> _LANE:
            raise ValueError(f"a count of the box up to ({top1}, {top2}) does not fit {_LANE} bits")
        self._packed = self._fill(roots, top1, [1] + [0] * (size - 1), _LANE)

    def _fill(self, roots, top1: int, table: list[int], shift: int) -> list[int]:
        """One ascending pass per root: table[v] += q·table[v - α], q· a shift."""
        width = self._width
        for a1, a2 in roots:
            back = a1 * width + a2
            for c1 in range(a1, top1 + 1):
                row = c1 * width
                for index in range(row + a2, row + width):
                    table[index] += table[index - back] << shift
        return table

    def __getitem__(self, v: tuple[int, int]) -> QPoly:
        c1, c2 = v
        packed = self._packed[c1 * self._width + c2]
        lanes = array("Q")
        lanes.frombytes(packed.to_bytes((c1 + c2 + 1) * _LANE // 8, "little"))
        return QPoly(lanes)
