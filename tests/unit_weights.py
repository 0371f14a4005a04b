"""Products built letter by letter from unit Laurent generators, shared by
the eta-commutator tests."""

from spinhecke.engine import generator_element


def unit_weight_product(r, eta, sig):
    """((r e_j1) e_j2)... over |eta_j| unit generators e(j) or einv(j) each.

    Every product crosses r with one unit weight only, so the engine applies
    the defining (unit) instance of the eta-commutator rule and never the
    closed form for eta itself.
    """
    prod = r
    for j, e in enumerate(eta, start=1):
        if e:
            unit = generator_element(sig, ("e" if e > 0 else "einv", j))
            for _ in range(abs(e)):
                prod = prod * unit
    return prod
