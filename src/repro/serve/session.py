"""Re-export of :class:`repro.adapt.session.AdaptationSession`.

The session lives in :mod:`repro.adapt.session`, below every layer that
drives it.  This path is kept because the frozen benchmark harness
(``perfbench/``) imports the session from here.
"""

from repro.adapt.session import AdaptationSession

__all__ = ["AdaptationSession"]
