"""python -m gkmrest: the gkmrest command line."""

from .cli import main

raise SystemExit(main())
