"""Event mining: presentation / dialog / clinical-operation detection."""
