"""The suite runs numpy's BLAS on one thread, as the ``diffpol`` CLI
does, so that training's Adam worker process has a core of its own.
pytest loads this file before any test module imports numpy."""

from diffpol import pin_blas_threads

pin_blas_threads()
