"""Exception types shared across the kernel."""


class KernelError(Exception):
    pass


class BudgetExceeded(KernelError):
    """An enumeration would overflow its bounds."""


class NotComposable(KernelError, ValueError):
    """Two morphisms whose endpoints do not meet were composed, as when a
    structure file names a morphism of the wrong hom-set.  Inside
    ``check`` it is a FAIL line of the suite that composed them."""


class NotBijective(KernelError):
    """A map required to be a bijection has zero or several preimages."""


class NoUnitFound(KernelError):
    pass


class StrictnessError(KernelError):
    """Input monoidal data is not strictly associative/unital."""


class FormatError(KernelError):
    """Malformed interchange file or structure table: a missing or
    wrong-typed entry.  The command line exits 2 on it."""
