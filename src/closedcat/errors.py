"""Exception types shared across the kernel."""


class KernelError(Exception):
    pass


class BudgetExceeded(KernelError):
    """An enumeration would overflow its bounds."""


class NotBijective(KernelError):
    """A map required to be a bijection has zero or several preimages."""


class NoUnitFound(KernelError):
    pass


class NotUnique(KernelError):
    """A morphism required to be unique has zero or several solutions."""


class StrictnessError(KernelError):
    """Input monoidal data is not strictly associative/unital."""


class FormatError(KernelError):
    """Malformed interchange file or structure table: a missing or
    wrong-typed entry.  The command line exits 2 on it."""
