"""Deterministic scenario toolkit for large dormant-position disposition analysis.

Quantifies the mechanical price impact of patient liquidation under varying
elasticity and execution assumptions, builds participation-constrained
selldown schedules and optimal-execution frontiers, maps preference sets to
terminal dispositions, and simulates the cryptographic disposition
mechanisms (secret sharding, timelocks, dead-man's switch) on a simulated
clock.

Import each name from its module (``from overhang.mechanisms import split``).
The package holds only ``__version__`` and ``checked`` and imports nothing,
so importing one module loads no other module it does not need.
"""

__version__ = "0.1.0"


def checked(cls):
    """Make a NamedTuple record run its _check() wherever it is built: the
    constructor, _make and _replace. NamedTuple forbids __new__ and _make in
    the class body, so a decorator sets them."""
    new = cls.__new__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))  # _replace calls _make
    return cls
