"""Stability and instability of an ensemble of computations (Section 4.3).

The paper defines stability on ``P`` processors of an ensemble of
computations over ``K`` codes as::

    St(P, N_i, K, e) = min performance(K, e) / max performance(K, e)

where ``e`` computations are excluded from the ensemble because their results
are outliers, and instability ``In`` is the inverse of stability.  A system is
judged *stable* when ``In <= STABILITY_THRESHOLD`` (the paper observes an
instability of about 5 on twenty years of workstations and draws the line at
6) for a small number of exclusions ``e``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

#: "we will define a system as stable if 6 <= St(K, e)" -- in instability
#: terms, stable when In <= 6 (workstation-level variation ~5).
STABILITY_THRESHOLD = 6.0

#: PPT4 uses the tighter range 0.5 <= St <= 1 (In <= 2) when only the data
#: size varies: "an Instability of 2 seems reasonable to expect on
#: workstations as data size varies".
SCALABILITY_THRESHOLD = 2.0


@dataclass(frozen=True)
class StabilityResult:
    """Stability of an ensemble after excluding a chosen set of outliers.

    Attributes:
        stability: ``min rate / max rate`` over the retained codes.
        excluded: Names of the excluded codes.
        retained_min: (code, rate) achieving the minimum after exclusion.
        retained_max: (code, rate) achieving the maximum after exclusion.
    """

    stability: float
    excluded: FrozenSet[str]
    retained_min: Tuple[str, float]
    retained_max: Tuple[str, float]

    @property
    def instability(self) -> float:
        """In = 1 / St."""
        if self.stability == 0:
            raise ValueError("instability undefined for zero stability")
        return 1.0 / self.stability


def _validate_rates(rates: Mapping[str, float]) -> None:
    if not rates:
        raise ValueError("stability of an empty ensemble is undefined")
    for code, rate in rates.items():
        if rate <= 0:
            raise ValueError(f"rate for {code!r} must be positive, got {rate}")


def stability(rates: Mapping[str, float], exclusions: int = 0) -> StabilityResult:
    """St(P, N, K, e) with the best choice of ``exclusions`` outliers.

    The paper excludes "outliers from the ensemble"; outliers may sit at
    either extreme ("several very poor performers (e.g., SPICE) and several
    very high performers"), so the optimal exclusion set is found by
    searching every split of the exclusion budget between the slowest and the
    fastest codes -- the optimum always removes a prefix of the sorted order
    from each end.

    Args:
        rates: Per-code performance (MFLOPS, or any positive rate).
        exclusions: Number of codes to drop (the e in St(P, N, K, e)).

    Returns:
        The maximal-stability result over all exclusion sets of that size.
    """
    _validate_rates(rates)
    if exclusions < 0:
        raise ValueError(f"exclusions must be >= 0, got {exclusions}")
    if exclusions >= len(rates):
        raise ValueError(
            f"cannot exclude {exclusions} of {len(rates)} codes: "
            "at least one code must remain"
        )

    ordered = sorted(rates.items(), key=lambda item: item[1])
    best: StabilityResult | None = None
    for from_bottom in range(exclusions + 1):
        from_top = exclusions - from_bottom
        retained = ordered[from_bottom : len(ordered) - from_top or None]
        low_code, low_rate = retained[0]
        high_code, high_rate = retained[-1]
        candidate = StabilityResult(
            stability=low_rate / high_rate,
            excluded=frozenset(
                code for code, _ in ordered[:from_bottom] + ordered[len(ordered) - from_top :]
            )
            if from_top
            else frozenset(code for code, _ in ordered[:from_bottom]),
            retained_min=(low_code, low_rate),
            retained_max=(high_code, high_rate),
        )
        if best is None or candidate.stability > best.stability:
            best = candidate
    assert best is not None  # exclusions < len(rates) guarantees a candidate
    return best


def instability(rates: Mapping[str, float], exclusions: int = 0) -> float:
    """In(K, e): the inverse of the best achievable stability."""
    return stability(rates, exclusions).instability


def minimal_exclusions_for_stability(
    rates: Mapping[str, float],
    threshold: float = STABILITY_THRESHOLD,
) -> int:
    """Smallest e such that In(K, e) <= threshold.

    This is the paper's question "the number of exceptions required to
    achieve workstation-level stability" (two for Cedar and the Cray 1,
    six for the Y-MP/8).

    Raises:
        ValueError: if no exclusion count below K achieves the threshold.
    """
    _validate_rates(rates)
    for exclusions in range(len(rates)):
        if instability(rates, exclusions) <= threshold:
            return exclusions
    raise ValueError(
        f"no exclusion count below {len(rates)} reaches instability <= {threshold}"
    )


def instability_profile(
    rates: Mapping[str, float], exclusion_counts: Sequence[int]
) -> Dict[int, float]:
    """In(K, e) for each requested e; the rows of the paper's Table 5."""
    profile: Dict[int, float] = {}
    for exclusions in exclusion_counts:
        if exclusions >= len(rates):
            continue
        profile[exclusions] = instability(rates, exclusions)
    return profile
