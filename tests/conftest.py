from fractions import Fraction

import pytest


@pytest.fixture
def fractions_built(monkeypatch):
    """``fractions_built(call)`` is ``(call(), n)``, with n the Fractions built
    during the call: calls of ``Fraction.__new__`` and, where it exists
    (Python 3.12+ builds arithmetic results through it), of
    ``Fraction._from_coprime_ints``."""
    count = 0

    def counted(build):
        def wrapper(*args, **kwargs):
            nonlocal count
            count += 1
            return build(*args, **kwargs)

        return wrapper

    def run(call):
        nonlocal count
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counted(vars(Fraction)["__new__"])))
            if "_from_coprime_ints" in vars(Fraction):
                build = vars(Fraction)["_from_coprime_ints"].__func__
                patch.setattr(Fraction, "_from_coprime_ints", classmethod(counted(build)))
            count = 0
            result = call()
            built = count
        return result, built

    return run
