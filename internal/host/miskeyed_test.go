package host

// misKeyedSetConfig is a seeded write-side fault, the fixture of
// TestSeededMisKeyedMutatorFailsBothGuards: it changes a configuration
// slot outside write and logs the change under the file's service key
// instead of the slot's configuration key. A push consumer would re-run
// the checks of the wrong slot and miss the ones reading this one.
func (l *Linux) misKeyedSetConfig(file, key, value string) {
	l.mu.Lock()
	l.config[ConfigSlot{file, key}] = value
	l.mu.Unlock()
	l.write(ServiceKey(file), "config.set", file+":"+key+"="+value, func() {})
}
