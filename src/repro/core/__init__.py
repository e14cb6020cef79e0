"""The paper's primary contribution: the adaptive hybrid scheme."""

from .. import lazy_exports

__all__ = ["AdaptiveMSS", "Mode", "NFCWindow"]

#: ``repro.policies.linear`` imports the NFC window alone; the scheme
#: loads at its first lookup (``repro.harness.SCHEMES["adaptive"]``).
__getattr__, __dir__ = lazy_exports(__name__, {
    ".adaptive": ("AdaptiveMSS",),
    ".mode": ("Mode",),
    ".nfc": ("NFCWindow",),
})
