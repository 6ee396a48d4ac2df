//! Program structure: modules containing functions containing steps.


use glaf_grid::{DataType, Grid};

use crate::stmt::Step;

/// A GLAF function (or subroutine, when `return_type == Void`).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    /// Selecting `Void` in the header step (Fig. 4) generates a SUBROUTINE
    /// with `CALL` sites; anything else generates a FUNCTION (§3.4).
    pub return_type: DataType,
    /// Names of parameter grids, in parameter order. Each must exist in
    /// `grids` with `GridOrigin::Parameter(k)`.
    pub params: Vec<String>,
    /// All grids visible in the function body: parameters and locals.
    /// Global-scope grids live on the module.
    pub grids: Vec<Grid>,
    pub steps: Vec<Step>,
}

impl Function {
    /// True when this function generates as a SUBROUTINE.
    pub fn is_subroutine(&self) -> bool {
        self.return_type == DataType::Void
    }

    /// Looks up a grid declared in this function.
    pub fn grid(&self, name: &str) -> Option<&Grid> {
        self.grids.iter().find(|g| g.name == name)
    }
}

/// A GLAF module: a named group of functions plus the grids created in the
/// special Global Scope module (§2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct GlafModule {
    pub name: String,
    /// Global Scope grids: `ModuleScope` ones are declared/initialized in
    /// the generated module (§3.3); `Existing(..)` ones map onto legacy data
    /// (§3.1/3.2/3.5).
    pub globals: Vec<Grid>,
    pub functions: Vec<Function>,
}

impl GlafModule {
    /// Looks up a global grid.
    pub fn global(&self, name: &str) -> Option<&Grid> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Looks up a function.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// A whole GLAF program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub modules: Vec<GlafModule>,
}

impl Program {
    /// Finds a function anywhere in the program, with its module.
    pub fn find_function(&self, name: &str) -> Option<(&GlafModule, &Function)> {
        self.modules
            .iter()
            .find_map(|m| m.function(name).map(|f| (m, f)))
    }

    /// Resolves a grid name visible from `func` in `module`: function-local
    /// first, then module globals.
    pub fn resolve_grid<'a>(
        &'a self,
        module: &'a GlafModule,
        func: &'a Function,
        name: &str,
    ) -> Option<&'a Grid> {
        func.grid(name).or_else(|| module.global(name))
    }

    /// Total number of functions.
    pub fn function_count(&self) -> usize {
        self.modules.iter().map(|m| m.functions.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaf_grid::DataType;

    fn sample() -> Program {
        let f = Function {
            name: "adjust2".into(),
            return_type: DataType::Void,
            params: vec![],
            grids: vec![Grid::build("t").typed(DataType::Real8).finish().unwrap()],
            steps: vec![],
        };
        Program {
            modules: vec![GlafModule {
                name: "sarb_kernels".into(),
                globals: vec![Grid::build("gshared")
                    .typed(DataType::Real8)
                    .module_scope()
                    .finish()
                    .unwrap()],
                functions: vec![f],
            }],
        }
    }

    #[test]
    fn subroutine_detection() {
        let p = sample();
        let (_, f) = p.find_function("adjust2").unwrap();
        assert!(f.is_subroutine());
    }

    #[test]
    fn grid_resolution_prefers_locals() {
        let mut p = sample();
        // Shadow the global with a local of the same name.
        let (m, f) = (&mut p.modules[0], 0usize);
        m.functions[f]
            .grids
            .push(Grid::build("gshared").typed(DataType::Integer).finish().unwrap());
        let m = &p.modules[0];
        let f = &m.functions[0];
        let g = p.resolve_grid(m, f, "gshared").unwrap();
        assert_eq!(g.scalar_type(), Some(DataType::Integer));
        // Unshadowed lookups hit the module global.
        let g2 = p.resolve_grid(m, f, "t").unwrap();
        assert_eq!(g2.scalar_type(), Some(DataType::Real8));
    }

    #[test]
    fn find_function_misses() {
        assert!(sample().find_function("nope").is_none());
    }
}
