"""Social-stream monitoring pipeline: keyword filter, tf-idf + linear-SVM
relevance classifier, and announcement-aligned period reports.

The ``outbreakmon`` command line (``outbreakmon.cli``) is the interface; the
package itself exports only ``__version__``."""

__version__ = "0.1.0"
