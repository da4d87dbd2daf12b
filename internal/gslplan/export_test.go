package gslplan

// PerEntity names the first construct that keeps the program per entity.
func (p *Program) PerEntity() string { return p.perEntity }
