"""Checks shared by the solver-step tests: FFT call counts, moment agreement, kernel lifetime."""

import gc
import weakref
from collections import Counter

import numpy as np

FFT_NAMES = ("fft", "ifft", "rfft", "irfft")


def count_ffts(monkeypatch, rows: bool = False) -> Counter:
    """Patch ``np.fft``'s 1-D transforms to count them by name; returns the counter.

    Counts calls, or with ``rows`` the 1-D transforms they take: a call on
    a ``(B, n)`` array along its last axis counts B.
    """
    calls = Counter()
    for name in FFT_NAMES:
        original = getattr(np.fft, name)

        def counted(a, *args, __name=name, __original=original, **kwargs):
            a = np.asarray(a)
            calls[__name] += a.size // a.shape[kwargs.get("axis", -1)] if rows else 1
            return __original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def assert_moments_close(got, want, rel: float) -> None:
    """Every moment series of ``got`` within ``rel`` of its scale in ``want``.

    The scale of a width, the uncertainty product or the emittance is its
    largest value; a mean is measured against the largest width of its
    axis, and ``sigma_xp`` against the largest uncertainty product.
    """
    assert len(got) == len(want)

    def series(moments, name):
        return np.array([getattr(m, name) for m in moments])

    def peak(name):
        return np.abs(series(want, name)).max()

    scales = {
        "mean_x": peak("sigma_x"),
        "mean_p": peak("sigma_p"),
        "sigma_x": peak("sigma_x"),
        "sigma_p": peak("sigma_p"),
        "sigma_xp": peak("uncertainty_product"),
        "uncertainty_product": peak("uncertainty_product"),
        "emittance": peak("emittance"),
    }
    for name, scale in scales.items():
        deviation = np.abs(series(got, name) - series(want, name)).max()
        assert deviation <= rel * scale, f"{name}: {deviation:.3e} > {rel:g} * {scale:.3e}"


def assert_freed_without_gc(build) -> None:
    """The object ``build()`` returns is freed with its last reference, with no garbage collection.

    A kernel that refers to itself would keep its arrays until the next
    collection of the reference cycle.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        alive = weakref.ref(build())
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()
