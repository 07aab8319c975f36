"""Reference delta arithmetic on truncated q-lifts, kept as a test oracle.

`_TruncatedDelta` is the earlier second W arithmetic of the axiom suite's
bulk sweep: t-coordinate tuples mod p^(N+1) with their own product, sum,
p-th power, Frobenius and delta.  The library now runs that sweep on
`WScalar` in W(p, N+1, M) with `delta_ring.w_delta`; the tests compare the
two on seeded random elements.  The class is kept verbatim.
"""

from __future__ import annotations

from qprism.base_ring import RingContext


class _TruncatedDelta:
    """Delta arithmetic on q-only lifts in the truncated model.

    Elements are t-coordinate tuples of length M with entries mod p^{N+1}
    (one digit of headroom for the division by p); the Frobenius lift and
    delta descend to this quotient, so law checks at precision N-1 are
    exact statements about the truncation.
    """

    def __init__(self, ctx: RingContext):
        self.p = ctx.p
        self.m = ctx.m_prec
        self.mod = ctx.p ** (ctx.n_prec + 1)
        phi_t = self._phi_t()
        pows = [self._one()]
        for _ in range(self.m - 1):
            pows.append(self.mul(pows[-1], phi_t))
        self.phi_t_pows = pows

    def _one(self):
        return tuple([1] + [0] * (self.m - 1))

    def _phi_t(self):
        # (1+t)^p - 1 truncated; the constant coefficient vanishes
        from math import comb

        return tuple(
            (comb(self.p, i) if i >= 1 else 0) % self.mod for i in range(self.m)
        )

    def mul(self, u, v):
        out = [0] * self.m
        for i, a in enumerate(u):
            if a:
                for j in range(self.m - i):
                    b = v[j]
                    if b:
                        out[i + j] = (out[i + j] + a * b) % self.mod
        return tuple(out)

    def add(self, u, v):
        return tuple((a + b) % self.mod for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple((a - b) % self.mod for a, b in zip(u, v))

    def scale(self, u, c):
        return tuple((a * c) % self.mod for a in u)

    def powp(self, u):
        out = self._one()
        base = u
        e = self.p
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def phi(self, u):
        out = tuple([0] * self.m)
        for i, c in enumerate(u):
            if c:
                out = self.add(out, self.scale(self.phi_t_pows[i], c))
        return out

    def delta(self, u):
        diff = self.sub(self.phi(u), self.powp(u))
        # representatives of classes divisible by p stay divisible by p
        return tuple((c % self.mod) // self.p for c in diff)
