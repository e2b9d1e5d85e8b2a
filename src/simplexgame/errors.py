"""Exception types shared across the package, and the allocation budget."""

MAX_ALLOCATION_BYTES = 1 << 32  # 4 GiB; a serial c05 sweep peaks at 70 MB, so more is a typo


class ValidationError(ValueError):
    """An input violates a documented invariant; `field` is the failed check's config field."""

    field: str | None = None


class DegenerateStrengthsError(ValidationError):
    """The strength distribution is too close to a face of the simplex to encode."""


class BudgetError(ValidationError):
    """An exhaustive computation would exceed its configured size budget."""


def check_allocation(nbytes: int, what: str) -> None:
    """Raise BudgetError before allocating more than MAX_ALLOCATION_BYTES for `what`."""
    if nbytes > MAX_ALLOCATION_BYTES:
        raise BudgetError(f"{what} would need {nbytes / 2**30:.3g} GiB, above the "
                          f"{MAX_ALLOCATION_BYTES / 2**30:.3g} GiB allocation budget")
