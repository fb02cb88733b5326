import sys, os
sys.path.insert(0, os.path.dirname(__file__))
# scripts/experiments.py holds the experiment table that the acceptance criteria read
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts"))
